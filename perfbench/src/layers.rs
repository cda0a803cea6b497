//! Per-layer metrics of a traced run, named by the workspace crate whose
//! public functions each span wraps.

use crate::replay::Counters;
use crate::trace::Agg;
use crate::Metric;
use std::collections::BTreeMap;

/// Timed layer calls: (span, mean-ms metric, calls-per-operation metric).
const TIMED: [(&str, &str, &str); 12] = [
    ("rl.update", "rl.update_ms", "rl.updates"),
    ("rl.forward", "rl.forward_ms", "rl.forward_calls"),
    ("opt.action", "opt.action_ms", "opt.action_runs"),
    ("embed.module", "embed.module_ms", "embed.module_calls"),
    ("target.size", "target.size_ms", "target.size_calls"),
    ("target.mca", "target.mca_ms", "target.mca_calls"),
    ("ir.parse", "ir.parse_ms", "ir.parse_calls"),
    ("ir.verify", "ir.verify_ms", "ir.verify_calls"),
    ("ir.hash", "ir.hash_ms", "ir.hash_calls"),
    ("ir.print", "ir.print_ms", "ir.print_calls"),
    ("serve.decode", "serve.decode_ms", "serve.decode_calls"),
    ("serve.encode", "serve.encode_ms", "serve.encode_calls"),
];

/// The passes with the most self time, summed over the first traced runs
/// of the three workloads (seed 1); each gets `opt.pass.<name>_ms` and
/// `opt.pass.<name>_calls`.
pub const TOP_PASSES: [&str; 8] = [
    "functionattrs",
    "ipsccp",
    "lcssa",
    "simplifycfg",
    "sroa",
    "loop-simplify",
    "early-cse",
    "licm",
];

/// Everything a traced run measured, from spans and program counters.
pub struct Layered<'a> {
    pub summary: &'a BTreeMap<&'static str, Agg>,
    pub setup: &'a BTreeMap<&'static str, Agg>,
    /// Modules generated by the one `workloads.generate` call.
    pub generated: u64,
    /// Operations replayed: training steps or requests.
    pub ops: u64,
    pub counters: Counters,
    pub wall_s: f64,
    pub untraced_s: f64,
    pub root_ns: u64,
    pub rollout_ns: u64,
    pub step_hit_rate: f64,
    pub measure_hit_rate: f64,
    pub embed_hit_rate: f64,
    pub incremental_embed_hit_rate: f64,
    pub store_hit_rate: f64,
    pub batch_mean: f64,
    pub server_ms: f64,
    pub replay_match: bool,
}

impl Layered<'_> {
    pub fn metrics(&self) -> Vec<Metric> {
        let ops = self.ops.max(1) as f64;
        let get = |name: &str| self.summary.get(name).copied().unwrap_or_default();
        let mut out = Vec::new();
        for (span, ms, calls) in TIMED {
            let a = get(span);
            out.push(Metric::new(ms, a.mean_ms(), "ms"));
            out.push(Metric::new(calls, a.calls as f64 / ops, "count"));
        }
        for p in TOP_PASSES {
            let a = get(&format!("opt.pass.{p}"));
            out.push(Metric::new(format!("opt.pass.{p}_ms"), a.mean_ms(), "ms"));
            out.push(Metric::new(
                format!("opt.pass.{p}_calls"),
                a.calls as f64 / ops,
                "count",
            ));
        }
        let runs = self.counters.action_runs.max(1) as f64;
        let gen = self
            .setup
            .get("workloads.generate")
            .copied()
            .unwrap_or_default();
        let wall_ns = self.wall_s * 1e9;
        out.extend([
            Metric::new(
                "opt.insts_after",
                self.counters.insts_after as f64 / runs,
                "count",
            ),
            Metric::new(
                "workloads.generate_ms",
                gen.total_ns as f64 / 1e6 / self.generated.max(1) as f64,
                "ms",
            ),
            Metric::new("workloads.generate_calls", self.generated as f64, "count"),
            Metric::new("core.cache.step_hit_rate", self.step_hit_rate, "ratio"),
            Metric::new(
                "core.cache.measure_hit_rate",
                self.measure_hit_rate,
                "ratio",
            ),
            Metric::new("core.cache.embed_hit_rate", self.embed_hit_rate, "ratio"),
            Metric::new(
                "analyze.incremental.embed_hit_rate",
                self.incremental_embed_hit_rate,
                "ratio",
            ),
            Metric::new(
                "core.engine.rollout_share",
                self.rollout_ns as f64 / wall_ns,
                "ratio",
            ),
            Metric::new("serve.store_hit_rate", self.store_hit_rate, "ratio"),
            Metric::new("serve.batch_mean", self.batch_mean, "count"),
            Metric::new("serve.server_ms", self.server_ms, "ms"),
            Metric::new("trace.coverage", self.root_ns as f64 / wall_ns, "ratio"),
            Metric::new(
                "trace.overhead_pct",
                100.0 * (self.wall_s - self.untraced_s) / self.untraced_s,
                "%",
            ),
            Metric::new(
                "trace.replay_match",
                if self.replay_match { 1.0 } else { 0.0 },
                "bool",
            ),
        ]);
        out
    }
}

/// Prints every pass's self time, heaviest first (the data `TOP_PASSES`
/// was chosen from).
pub fn print_passes(summary: &BTreeMap<&'static str, Agg>) {
    let mut passes: Vec<(&str, Agg)> = summary
        .iter()
        .filter_map(|(k, a)| k.strip_prefix("opt.pass.").map(|p| (p, *a)))
        .collect();
    passes.sort_by_key(|p| std::cmp::Reverse(p.1.self_ns));
    for (p, a) in passes {
        println!(
            "pass {p}: self {:.1} ms over {} calls",
            a.self_ns as f64 / 1e6,
            a.calls
        );
    }
}
