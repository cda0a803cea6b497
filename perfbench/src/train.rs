//! The `train` workload: parallel-engine DDQN training on the paper's
//! Section V-A schedule, cut to a fixed step count, followed by rollouts
//! of the trained agent on freshly generated modules.

use crate::check::{check_pairs, Pair};
use crate::layers::{self, Layered};
use crate::replay::ReplayEnv;
use crate::trace::Tracer;
use crate::util::{self, median, mix, rate, Rng};
use crate::{Metric, Outcome};
use posetrl::{
    train_parallel, ActionSet, EngineConfig, EvalCache, PhaseEnv, TrainedModel, TrainerConfig,
};
use posetrl_analyze::IncrementalAnalysisManager;
use posetrl_ir::printer::print_module;
use posetrl_ir::Module;
use posetrl_rl::dqn::DqnAgent;
use posetrl_rl::replay::Transition;
use posetrl_target::{mca, size::object_size};
use posetrl_workloads::{training_suite, Benchmark};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Steps per training run: one 15-step episode on each of the 130
/// programs, so every seed trains on the same programs in another order.
const TRAIN_STEPS: u64 = 130 * 15;
/// Steps replayed by the traced run (20 episodes; updates start at 64).
const TRACE_STEPS: u64 = 300;
/// Modules the trained policy optimizes afterwards (two per stratum).
const EVAL_MODULES: usize = 48;

struct Setup {
    programs: Vec<Benchmark>,
    config: EngineConfig,
    eval_inputs: Vec<Module>,
}

fn setup(seed: u64, steps: u64, tr: &Tracer) -> Setup {
    let programs = shuffle_within_strata(tr.span("workloads.generate", training_suite), seed);
    let mut trainer = TrainerConfig::paper_scale();
    trainer.total_steps = steps;
    trainer.log_every = 0;
    // the engine's and the agent's own seeds stay at their defaults: they
    // configure the trainer, while the programs are its input
    let config = EngineConfig {
        trainer,
        workers: util::nproc(),
        ..EngineConfig::default()
    };
    let eval_inputs = (0..EVAL_MODULES)
        .map(|i| util::generate_stratified(mix(seed, 3), i))
        .collect();
    Setup {
        programs,
        config,
        eval_inputs,
    }
}

/// Reorders `programs` by a seeded shuffle within each (kind, size)
/// stratum: every position keeps its stratum, so each round of the engine
/// gets the same mix of program shapes whatever the seed.
fn shuffle_within_strata(programs: Vec<Benchmark>, seed: u64) -> Vec<Benchmark> {
    let key = |b: &Benchmark| format!("{:?}/{:?}", b.spec.kind, b.spec.size);
    let mut strata: BTreeMap<String, Vec<Benchmark>> = BTreeMap::new();
    let order: Vec<String> = programs.iter().map(key).collect();
    for b in programs {
        strata.entry(key(&b)).or_default().push(b);
    }
    let mut rng = Rng::new(mix(seed, 4));
    for group in strata.values_mut() {
        util::shuffle(group, &mut rng);
    }
    order
        .iter()
        .map(|k| {
            strata
                .get_mut(k)
                .and_then(Vec::pop)
                .expect("stratum has a program left")
        })
        .collect()
}

struct EvalOut {
    size_ratios: Vec<f64>,
    cycle_ratios: Vec<f64>,
    pairs: Vec<Pair>,
    failed: u64,
    digest: String,
}

/// Rolls out the trained agent's behaviour policy (ε-greedy at the ε it
/// ended training with, one seeded stream per module) on `inputs`, from
/// `nproc` threads sharing one evaluation cache. At this schedule's length
/// ε is still near 0.9, so the rollouts are stable across seeds where a
/// greedy evaluation would hinge on one barely trained argmax.
fn evaluate(model: &TrainedModel, inputs: &[Module], seed: u64) -> EvalOut {
    let cache = Arc::new(
        EvalCache::with_capacity(EvalCache::DEFAULT_CAPACITY)
            .with_incremental(Some(Arc::new(IncrementalAnalysisManager::new()))),
    );
    let policy = model.agent.policy();
    let eps = model.agent.epsilon();
    let results = util::par_map(inputs, util::nproc(), |i, input| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = Rng::new(mix(seed, 100 + i as u64));
            let mut env =
                PhaseEnv::with_cache(model.env.clone(), model.actions.clone(), Arc::clone(&cache));
            let mut state = env.reset(input.clone());
            loop {
                let a = if rng.unit() < eps {
                    rng.below(model.actions.len())
                } else {
                    policy.act_greedy(&state)
                };
                let r = env.step(a);
                state = r.state;
                if r.done {
                    break;
                }
            }
            env.module().clone()
        }))
        .ok()
    });
    let mut out = EvalOut {
        size_ratios: Vec::new(),
        cycle_ratios: Vec::new(),
        pairs: Vec::new(),
        failed: 0,
        digest: String::new(),
    };
    let arch = model.env.arch;
    let mut digest = util::Digest::default();
    for (input, optimized) in inputs.iter().zip(results) {
        let Some(optimized) = optimized else {
            out.failed += 1;
            continue;
        };
        let size = |m: &Module| object_size(m, arch).total as f64;
        let cycles = |m: &Module| mca::analyze(m, arch).flat_cycles;
        out.size_ratios.push(size(&optimized) / size(input));
        out.cycle_ratios.push(cycles(&optimized) / cycles(input));
        let text = print_module(&optimized);
        digest.bytes(text.as_bytes());
        out.pairs.push(Pair {
            input: print_module(input),
            output: text,
        });
    }
    out.digest = digest.hex();
    out
}

/// Marker the child prints to standard error before each training run.
const RUN_START: &str = "perfbench: training run starts";
/// Prefix of the engine's per-round progress line.
const ROUND_LINE: &str = "[engine:";

/// The measured half of `train`, run in a child process: one training run
/// of `TRAIN_STEPS`, then the evaluation rollouts and output checks. The
/// engine logs one line per round to standard error; the parent times
/// those lines for the round latencies.
pub fn run_child(seed: u64) -> Outcome {
    let off = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut s = None;
    while util::more_setups(&setup_s, 0) {
        let t = Instant::now();
        s = Some(setup(seed, TRAIN_STEPS, &off));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut s = s.expect("set up at least once");
    // one progress line per round, the last (partial) round included
    s.config.trainer.log_every = s.config.trainer.env.episode_len as u64;

    eprintln!("{RUN_START}");
    let t = Instant::now();
    let (model, report) = train_parallel(&s.config, ActionSet::odg(), &s.programs, &[]);
    let steps_per_s = TRAIN_STEPS as f64 / t.elapsed().as_secs_f64();
    let episodes = report.episode_rewards.len() as u64;

    let eval = evaluate(&model, &s.eval_inputs, seed);
    let failures = check_pairs(&eval.pairs, util::nproc());
    for f in &failures {
        println!("check failed: {f}");
    }
    println!(
        "train: {TRAIN_STEPS} steps in {episodes} episodes; \
         evaluation digest {} over {EVAL_MODULES} modules",
        eval.digest
    );
    println!(
        "failures: overloaded=0 rollout-failed={} bad-module=0 transport=0",
        eval.failed
    );
    Outcome {
        correct: failures.is_empty() && eval.failed == 0,
        attempted: episodes + EVAL_MODULES as u64,
        failed: eval.failed,
        metrics: vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("peak_rss_mb", util::peak_rss_mb(), "MiB"),
            Metric::new("steps_per_s", steps_per_s, "1/s"),
            Metric::new("final_reward", model.final_mean_reward, "reward"),
            Metric::new(
                "size_reduction_pct",
                100.0 * (1.0 - util::geomean(&eval.size_ratios)),
                "%",
            ),
            Metric::new(
                "cycle_reduction_pct",
                100.0 * (1.0 - util::geomean(&eval.cycle_ratios)),
                "%",
            ),
        ],
    }
}

/// Runs `run_child` in a child process (this program with `--train-child`)
/// and adds the round metrics: a round is the batch of episodes the
/// engine's coordinator sends to its workers and waits for, so its latency
/// is what the trainer's closed loop sees. The engine only reports rounds
/// on standard error, hence the second process; all the load runs in it.
///
/// The run's length is set by `TRAIN_STEPS`, not by `--seconds`, so that
/// `final_reward` and the evaluation outputs depend on the seed alone.
pub fn run(seed: u64) -> Outcome {
    let exe = std::env::current_exe().expect("path of this program");
    let mut child = Command::new(exe)
        .args(["--workload", "train", "--train-child", "1"])
        .args(["--seed", &seed.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start the training process");
    let stderr = child.stderr.take().expect("child stderr is piped");
    let timer = std::thread::spawn(move || {
        let mut rounds_ms = Vec::new();
        let mut last = None;
        for line in BufReader::new(stderr).lines() {
            let line = line.expect("child stderr is text");
            let now = Instant::now();
            if line == RUN_START {
                last = Some(now);
            } else if line.starts_with(ROUND_LINE) {
                let since = last.expect("rounds follow a run start");
                rounds_ms.push(now.duration_since(since).as_secs_f64() * 1e3);
                last = Some(now);
            } else {
                eprintln!("{line}");
            }
        }
        rounds_ms
    });
    let output = child
        .wait_with_output()
        .expect("wait for the training process");
    let rounds_ms = timer.join().expect("stderr reader thread");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    if !output.status.success() {
        eprintln!("the training process failed: {}", output.status);
        std::process::exit(1);
    }
    let mut outcome = Outcome::from_json(last).expect("the training process prints its outcome");
    let (tail_pct, tail_ms) = util::tail(&rounds_ms);
    println!(
        "{} rounds; tail_ms is p{tail_pct} of the round latencies",
        rounds_ms.len()
    );
    let total_s = rounds_ms.iter().sum::<f64>() / 1e3;
    outcome.metrics.extend([
        Metric::new("rps", rounds_ms.len() as f64 / total_s, "1/s"),
        Metric::new("p50_ms", median(&rounds_ms), "ms"),
        Metric::new("tail_ms", tail_ms, "ms"),
    ]);
    outcome
}

/// Seed of episode `ep_index`'s exploration stream. The engine keeps its
/// RNG private; this mirrors it, and the traced run reports whether the
/// replayed episode rewards still match the engine's.
fn episode_seed(engine_seed: u64, ep_index: u64) -> u64 {
    let mut z = engine_seed ^ ep_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The engine's serial path (`workers == 1`), replayed layer by layer.
/// Returns the episode rewards, the env work counters and the hit rate of
/// the per-function embedding memo.
fn replay(tr: &Tracer, s: &Setup) -> (Vec<f64>, crate::replay::Counters, f64) {
    let cfg = &s.config;
    let tcfg = &cfg.trainer;
    let actions = ActionSet::odg();
    let incr = Arc::new(IncrementalAnalysisManager::new());
    let cache = Arc::new(
        EvalCache::with_capacity(cfg.cache_capacity).with_incremental(Some(Arc::clone(&incr))),
    );
    let mut agent_cfg = tcfg.agent.clone();
    agent_cfg.state_dim = posetrl_embed::DIM;
    agent_cfg.n_actions = actions.len();
    let mut agent = DqnAgent::new(agent_cfg.clone());
    let ep_len = tcfg.env.episode_len.max(1) as u64;
    let mut counters = crate::replay::Counters::default();
    let mut rewards = Vec::new();
    let (mut steps, mut ep_index) = (0u64, 0u64);
    while steps < tcfg.total_steps {
        let policy = tr.span("rl.snapshot", || agent.policy());
        let mut env = tr.span("core.env.new", || {
            ReplayEnv::new(tr, tcfg.env.clone(), actions.clone(), Arc::clone(&cache))
        });
        let mut round: Vec<(f64, Vec<Transition>)> = Vec::new();
        let mut planned = 0u64;
        while round.len() < cfg.episodes_per_round.max(1)
            && steps + planned * ep_len < tcfg.total_steps
        {
            let start_step = steps + planned * ep_len;
            let module = s.programs[ep_index as usize % s.programs.len()]
                .module
                .clone();
            let mut rng = Rng::new(episode_seed(cfg.seed, ep_index));
            tr.set_op(start_step);
            let episode = tr.span("core.rollout", || {
                let mut state = env.reset(module);
                let mut transitions = Vec::new();
                let mut total = 0.0;
                for offset in 0.. {
                    let eps = agent_cfg.epsilon_at(start_step + offset);
                    let a = if rng.unit() < eps {
                        rng.below(actions.len())
                    } else {
                        tr.span("rl.forward", || policy.act_greedy(&state))
                    };
                    let (next, reward, done) = env.step(a);
                    total += reward;
                    transitions.push(Transition {
                        state: std::mem::take(&mut state),
                        action: a,
                        reward,
                        next_state: next.clone(),
                        done,
                    });
                    state = next;
                    if done {
                        break;
                    }
                }
                (total, transitions)
            });
            round.push(episode);
            ep_index += 1;
            planned += 1;
        }
        counters.action_runs += env.counters.action_runs;
        counters.insts_after += env.counters.insts_after;
        for (total, transitions) in round {
            for t in transitions {
                tr.set_op(steps);
                agent.advance_steps(1);
                let open = tr.begin();
                let trained = agent.observe(t).is_some();
                tr.end(open, if trained { "rl.update" } else { "rl.observe" });
                steps += 1;
            }
            rewards.push(total);
        }
    }
    let embed = incr.stats().embed;
    (rewards, counters, rate(embed.hits, embed.misses))
}

pub fn run_traced(seed: u64, spans: &std::path::Path) -> Outcome {
    let setup_tr = Tracer::new(true);
    let s = setup(seed, TRACE_STEPS, &setup_tr);
    let generated = s.programs.len() as u64;

    let (_, report) = train_parallel(&s.config, ActionSet::odg(), &s.programs, &[]);

    // a discarded warm-up replay, then untraced replays before and after
    // the traced one, so drift falls on both sides of the overhead
    let timed = |tr: &Tracer| {
        let t = Instant::now();
        let r = replay(tr, &s);
        (r, t.elapsed().as_secs_f64())
    };
    timed(&Tracer::new(false));
    let ((untraced_rewards, _, _), untraced_a) = timed(&Tracer::new(false));
    let tr = Tracer::new(true);
    let ((rewards, counters, embed_rate), traced_s) = timed(&tr);
    let (_, untraced_b) = timed(&Tracer::new(false));
    println!(
        "replay: untraced {untraced_a:.3} s, traced {traced_s:.3} s, untraced {untraced_b:.3} s"
    );
    let untraced_s = (untraced_a + untraced_b) / 2.0;

    let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    let stable = bits(&rewards) == bits(&untraced_rewards);
    let matches = bits(&rewards) == bits(&report.episode_rewards);
    if !matches {
        println!(
            "note: the replayed episode rewards differ from the engine's; the engine's \
             exploration RNG is private and the replay mirrors it, so the mirror is stale"
        );
    }
    let cache = report.cache.expect("engine runs with its cache on");
    let summary = tr.summary();
    let ops = tr.ops();
    let layered = Layered {
        summary: &summary,
        setup: &setup_tr.summary(),
        generated,
        ops,
        counters,
        wall_s: traced_s,
        untraced_s,
        root_ns: tr.root_ns(),
        rollout_ns: summary.get("core.rollout").map_or(0, |a| a.total_ns),
        step_hit_rate: rate(cache.step_hits, cache.step_misses),
        measure_hit_rate: rate(cache.measure_hits, cache.measure_misses),
        embed_hit_rate: rate(cache.embed_hits, cache.embed_misses),
        incremental_embed_hit_rate: embed_rate,
        store_hit_rate: 0.0,
        batch_mean: 0.0,
        server_ms: 0.0,
        replay_match: matches,
    };
    layers::print_passes(&summary);
    tr.write_jsonl(spans).expect("write the spans");
    println!("spans written to {}", spans.display());
    Outcome {
        correct: stable,
        attempted: ops,
        failed: 0,
        metrics: layered.metrics(),
    }
}
