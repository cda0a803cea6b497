//! Benchmarks of the optimization pipelines and individual hot passes.

use criterion::{criterion_group, criterion_main, Criterion};
use posetrl_bench::bench_module;
use posetrl_opt::manager::PassManager;
use posetrl_opt::pipelines;
use std::hint::black_box;

fn bench_oz_pipeline(c: &mut Criterion) {
    let m = bench_module(10);
    let pm = PassManager::new();
    c.bench_function("pipeline_oz_medium", |b| {
        b.iter(|| {
            let mut m2 = m.clone();
            pm.run_pipeline(&mut m2, &pipelines::oz()).unwrap();
            black_box(m2.num_insts())
        })
    });
}

fn bench_o3_pipeline(c: &mut Criterion) {
    let m = bench_module(10);
    let pm = PassManager::new();
    c.bench_function("pipeline_o3_medium", |b| {
        b.iter(|| {
            let mut m2 = m.clone();
            pm.run_pipeline(&mut m2, &pipelines::o3()).unwrap();
            black_box(m2.num_insts())
        })
    });
}

fn bench_hot_passes(c: &mut Criterion) {
    let m = bench_module(11);
    let pm = PassManager::new();
    for pass in [
        "mem2reg",
        "instcombine",
        "gvn",
        "simplifycfg",
        "sccp",
        "licm",
        "inline",
    ] {
        c.bench_function(&format!("pass_{pass}"), |b| {
            b.iter(|| {
                let mut m2 = m.clone();
                pm.run_pass(&mut m2, pass).unwrap();
                black_box(m2.num_insts())
            })
        });
    }
}

/// Passes on the module as generated, before `mem2reg`: the shape a
/// rollout's first steps see, where every local still lives in an alloca.
fn bench_raw_passes(c: &mut Criterion) {
    let m = bench_module(10);
    let pm = PassManager::new();
    for (id, pass) in [
        ("functionattrs_raw_medium", "functionattrs"),
        ("ipsccp_medium", "ipsccp"),
        ("dse_raw_medium", "dse"),
    ] {
        c.bench_function(id, |b| {
            b.iter(|| {
                let mut m2 = m.clone();
                pm.run_pass(&mut m2, pass).unwrap();
                black_box(m2.num_insts())
            })
        });
    }
}

criterion_group!(
    benches,
    bench_oz_pipeline,
    bench_o3_pipeline,
    bench_hot_passes,
    bench_raw_passes
);
criterion_main!(benches);
