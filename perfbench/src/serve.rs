//! The `serve_fresh` and `serve_repeat` workloads: closed-loop clients
//! over the Unix-socket transport of an in-process `posetrl-serve`
//! server running a frozen model.

use crate::check::{check_pairs, Pair};
use crate::layers::{self, Layered};
use crate::replay::{Counters, ReplayEnv};
use crate::trace::Tracer;
use crate::util::{self, median, mix, rate, Digest, Rng};
use crate::{Metric, Outcome};
use posetrl::{EvalCache, TrainedModel};
use posetrl_analyze::IncrementalAnalysisManager;
use posetrl_ir::parser::parse_module;
use posetrl_ir::printer::print_module;
use posetrl_ir::verifier::verify_module;
use posetrl_ir::ModuleHash;
use posetrl_rl::dqn::Policy;
use posetrl_serve::protocol::{parse_request, parse_response, OkResponse, Request, Response};
use posetrl_serve::server::{run_unix_socket, Server};
use posetrl_serve::ServeConfig;
use posetrl_target::TargetArch;
use posetrl_workloads::{generate, ProgramKind, ProgramSpec, SizeClass};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The frozen serve model, made once with
/// `posetrl-serve --train quick --save-model`, so changes to training code
/// leave the serve traffic unchanged.
const MODEL_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/model/serve_quick.json");

const CLIENTS: usize = 2;
/// Requests per client that every run completes, whatever its length: the
/// deterministic prefix behind the digest, `final_reward` and the
/// reduction metrics.
const FRESH_PREFIX: usize = 32;
const REPEAT_PREFIX: usize = 150;
/// Requests per client the traced run sends and replays.
const FRESH_TRACE: usize = 12;
const REPEAT_TRACE: usize = 100;
/// Hot modules: every kind at Medium and Large size.
const HOT: usize = 16;
/// `serve_fresh` modules per (kind, size) stratum that every seed shares,
/// in a seeded order. A run on the reference machine sends 11-17 per
/// stratum, so runs send mostly the same modules and their latency
/// figures do not hinge on which modules a seed drew (with a module
/// stream of its own per seed, `p50_ms` varied by about 12% from the draw
/// alone). Requests past the pool get modules of a seeded stream.
const FRESH_POOL: usize = 16;
/// Generator seed of the shared pool.
const POOL_SEED: u64 = 0x9001_0000;
/// Every `EDIT_EVERY`-th request of a client is an edit of a hot module.
/// An assumed share (2%), not a measured one: it makes the edits the
/// slowest 2% of requests, so `tail_ms` (p99 at this volume) is the
/// latency of edit rollouts.
const EDIT_EVERY: usize = 50;
/// Zipf exponent of the hot-set draw; an assumed skew, not a measured one.
const SKEW: f64 = 1.0;
/// Requests per second per workload that the connection budget of a
/// measured run allows for: about ten times the rate of the reference
/// machine. A run that reaches the budget is not a measurement and fails.
const FRESH_MAX_RPS: f64 = 150.0;
const REPEAT_MAX_RPS: f64 = 2000.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Fresh,
    Repeat,
}

/// One request a client sends: its wire line and its module text.
struct Req {
    line: String,
    module: Arc<String>,
    edit: bool,
}

struct Inputs {
    mix: Mix,
    seed: u64,
    /// The hot set (empty for `serve_fresh`, whose modules are generated
    /// as the clients need them).
    modules: Vec<Arc<String>>,
    /// Cumulative Zipf weights over the hot set.
    cdf: Vec<f64>,
    /// Per stratum, the seeded order of the shared `serve_fresh` pool.
    pool_order: Vec<Vec<usize>>,
}

impl Inputs {
    fn new(kind: Mix, seed: u64, tr: &Tracer) -> Inputs {
        let specs: Vec<ProgramSpec> = match kind {
            Mix::Fresh => Vec::new(),
            // the hot set is one fixed code base for every seed, so seeds
            // vary the request sequence and the edits, not the byte mix
            Mix::Repeat => (0..HOT)
                .map(|r| ProgramSpec {
                    name: format!("hot_{r:02}"),
                    kind: ProgramKind::ALL[r % ProgramKind::ALL.len()],
                    size: [SizeClass::Medium, SizeClass::Large][r / ProgramKind::ALL.len() % 2],
                    seed: 0x4077_0000 + r as u64,
                })
                .collect(),
        };
        let modules = specs
            .iter()
            .map(|s| Arc::new(print_module(&tr.span("workloads.generate", || generate(s)))))
            .collect();
        let weights: Vec<f64> = (0..HOT)
            .map(|r| 1.0 / ((r + 1) as f64).powf(SKEW))
            .collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let pool_order = (0..util::STRATA)
            .map(|k| {
                let mut order: Vec<usize> = (0..FRESH_POOL).collect();
                util::shuffle(&mut order, &mut Rng::new(mix(seed, 11 + k as u64)));
                order
            })
            .collect();
        Inputs {
            mix: kind,
            seed,
            modules,
            cdf,
            pool_order,
        }
    }

    fn line(id: String, module: &str) -> String {
        Request {
            id,
            module: module.to_string(),
            arch: TargetArch::X86_64,
            max_steps: None,
        }
        .to_json()
    }

    /// Client `c`'s `i`-th request. A fresh module is generated here, by
    /// the client before it sends (inside a `workloads.generate` span).
    fn request(&self, c: usize, i: usize, tr: &Tracer) -> Req {
        let id = format!("c{c}-{i}");
        match self.mix {
            Mix::Fresh => {
                // the n-th request overall is the `round`-th of its stratum
                let n = i * CLIENTS + c;
                let (stratum, round) = (n % util::STRATA, n / util::STRATA);
                let spec = match self.pool_order[stratum].get(round) {
                    Some(slot) => util::stratified_spec(POOL_SEED, slot * util::STRATA + stratum),
                    None => util::stratified_spec(mix(self.seed, 10), n),
                };
                let module = Arc::new(print_module(
                    &tr.span("workloads.generate", || generate(&spec)),
                ));
                Req {
                    line: Inputs::line(id, &module),
                    module,
                    edit: false,
                }
            }
            Mix::Repeat => {
                let mut rng = Rng::new(mix(self.seed, ((c as u64) << 32) | i as u64));
                let edit = i % EDIT_EVERY == EDIT_EVERY - 1;
                let module = if edit {
                    // edits visit the hot modules in turn; the seed picks
                    // the constant and its new value
                    let hot = (i / EDIT_EVERY * CLIENTS + c) % HOT;
                    Arc::new(edit_module(&self.modules[hot], &mut rng))
                } else {
                    let u = rng.unit();
                    let hot = self.cdf.iter().position(|&p| u < p).unwrap_or(HOT - 1);
                    Arc::clone(&self.modules[hot])
                };
                Req {
                    line: Inputs::line(id, &module),
                    module,
                    edit,
                }
            }
        }
    }
}

/// Changes one integer constant in one function: the immediate operand
/// of a `mul` or `xor`. Generated programs mask every index and divisor,
/// so such an edit should not make the program trap; the output checks
/// run every edited input to completion. The result is checked with the
/// verifier before use.
fn edit_module(text: &str, rng: &mut Rng) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let sites: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            let l = l.trim_start();
            l.contains(" = mul i64 ") || l.contains(" = xor i64 ")
        })
        .filter(|(_, l)| l.ends_with(":i64"))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !sites.is_empty(),
        "hot modules have mul/xor immediates to edit"
    );
    let at = sites[rng.below(sites.len())];
    let line = lines[at];
    let (head, imm) = line
        .rsplit_once(", ")
        .expect("binary instruction has two operands");
    let old: i64 = imm
        .trim_end_matches(":i64")
        .parse()
        .expect("immediate is an integer");
    let new = old.wrapping_add(1 + rng.below(9) as i64);
    let mut out = String::with_capacity(text.len() + 8);
    for (i, l) in lines.iter().enumerate() {
        if i == at {
            out.push_str(&format!("{head}, {new}:i64"));
        } else {
            out.push_str(l);
        }
        out.push('\n');
    }
    let m = parse_module(&out).expect("edited module parses");
    verify_module(&m).expect("edited module verifies");
    out
}

/// The response fields that must repeat exactly between runs.
#[derive(Clone)]
struct Answer {
    module: Arc<String>,
    actions: Vec<u64>,
    size_before: u64,
    size_after: u64,
    cycles_before: f64,
    cycles_after: f64,
}

impl Answer {
    fn of(r: &OkResponse) -> Answer {
        Answer {
            module: Arc::new(r.module.clone()),
            actions: r.actions.clone(),
            size_before: r.size_before,
            size_after: r.size_after,
            cycles_before: r.cycles_before,
            cycles_after: r.cycles_after,
        }
    }

    fn digest(&self, d: &mut Digest) {
        d.bytes(self.module.as_bytes());
        for a in &self.actions {
            d.u64(*a);
        }
        d.u64(self.size_before);
        d.u64(self.size_after);
        d.u64(self.cycles_before.to_bits());
        d.u64(self.cycles_after.to_bits());
    }

    /// Eqn 1 summed over the episode: the size and cycle terms telescope.
    fn episode_reward(&self, alpha: f64, beta: f64) -> f64 {
        let sb = (self.size_before as f64).max(1.0);
        let cb = self.cycles_before.max(1.0);
        alpha * (sb - self.size_after as f64) / sb + beta * (cb - self.cycles_after) / cb
    }
}

/// One completed request as a client saw it.
struct Sample {
    client: usize,
    index: usize,
    latency_ms: f64,
    input: Arc<String>,
    edit: bool,
    /// The reply, or the failure kind.
    outcome: Result<Reply, String>,
}

struct Reply {
    answer: Answer,
    cached: bool,
    wall_us: u64,
}

/// Failure counts by kind.
#[derive(Default)]
struct Failures {
    by_kind: HashMap<String, u64>,
}

impl Failures {
    fn total(&self) -> u64 {
        self.by_kind.values().sum()
    }

    fn print(&self) {
        let get = |k: &str| self.by_kind.get(k).copied().unwrap_or(0);
        let other: u64 = self
            .by_kind
            .iter()
            .filter(|(k, _)| {
                !["overloaded", "rollout-failed", "bad-module", "transport"].contains(&k.as_str())
            })
            .map(|(_, v)| v)
            .sum();
        println!(
            "failures: overloaded={} rollout-failed={} bad-module={} transport={} other={other}",
            get("overloaded"),
            get("rollout-failed"),
            get("bad-module"),
            get("transport")
        );
    }
}

/// Runs client `c`'s closed loop until `seconds` have passed and the
/// prefix is done, or the connection budget runs out.
fn drive_client(s: &Session, c: usize, start: Instant, seconds: f64, prefix: usize) -> Vec<Sample> {
    let off = Tracer::new(false);
    let mut out = Vec::new();
    for i in 0.. {
        if i == prefix && s.prefix_done.fetch_add(1, Ordering::SeqCst) + 1 == CLIENTS {
            // memory after a fixed amount of work, whatever the throughput
            s.prefix_rss_mb
                .lock()
                .expect("rss slot lock")
                .replace(util::peak_rss_mb());
        }
        if i >= prefix && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let req = s.inputs.request(c, i, &off);
        if !s.claim_connection() {
            break;
        }
        let t = Instant::now();
        let reply = s.round_trip(&req.line);
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let outcome = match reply.as_deref().map(str::trim_end).map(parse_response) {
            Some(Ok(Response::Ok(r))) => Ok(Reply {
                answer: Answer::of(&r),
                cached: r.cached,
                wall_us: r.wall_us,
            }),
            Some(Ok(Response::Err(e))) => Err(e.error.kind.as_str().to_string()),
            Some(Err(_)) | None => Err("transport".to_string()),
        };
        let broken = matches!(&outcome, Err(k) if k == "transport");
        out.push(Sample {
            client: c,
            index: i,
            latency_ms,
            input: req.module,
            edit: req.edit,
            outcome,
        });
        if broken {
            break;
        }
    }
    out
}

/// Drives every client concurrently for `seconds` and at least `prefix`
/// requests each; returns samples in (client, index) order and the window
/// length in seconds.
fn drive(s: &Session, seconds: f64, prefix: usize) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || drive_client(s, c, start, seconds, prefix)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();
    samples.sort_by_key(|s| (s.client, s.index));
    (samples, window)
}

fn load_model() -> (TrainedModel, String) {
    let json = std::fs::read_to_string(MODEL_PATH)
        .unwrap_or_else(|e| panic!("cannot read the frozen model {MODEL_PATH}: {e}"));
    let mut d = Digest::default();
    d.bytes(json.as_bytes());
    let model = TrainedModel::from_json(&json).expect("frozen model parses");
    (model, d.hex())
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: util::nproc(),
        ..ServeConfig::default()
    }
}

/// A running server and the socket its clients connect to.
///
/// Each request travels on a connection of its own: the socket transport
/// answers a connection's requests only when its in-flight window fills
/// or its input ends, so a client that waits for each answer must close
/// its write half after every request. `run_unix_socket` returns after a
/// fixed number of connections; teardown opens empty ones to use up what
/// the clients left.
struct Session<'a> {
    server: &'a Server,
    incr: &'a IncrementalAnalysisManager,
    inputs: &'a Inputs,
    model: &'a TrainedModel,
    model_digest: &'a str,
    path: &'a Path,
    budget: usize,
    used: AtomicUsize,
    prefix_done: AtomicUsize,
    prefix_rss_mb: Mutex<Option<f64>>,
}

impl Session<'_> {
    /// Takes one connection from the budget; false once it is spent.
    fn claim_connection(&self) -> bool {
        self.used.fetch_add(1, Ordering::SeqCst) < self.budget
    }

    /// Whether a client was refused a connection.
    fn exhausted(&self) -> bool {
        self.used.load(Ordering::SeqCst) > self.budget
    }

    /// One request on a fresh connection (claimed beforehand); `None` on a
    /// transport failure.
    fn round_trip(&self, line: &str) -> Option<String> {
        let mut stream = UnixStream::connect(self.path).ok()?;
        stream.write_all(line.as_bytes()).ok()?;
        stream.write_all(b"\n").ok()?;
        stream.shutdown(Shutdown::Write).ok()?;
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).ok()?;
        Some(reply)
    }
}

/// Sets up a server and its socket, calls `f`, then tears everything down.
/// Returns the set-up time (model load, input generation, server start,
/// first connection and, for `serve_repeat`, storing the hot set) and
/// `f`'s result. `budget` bounds the connections `f` may open.
fn session<R>(
    mix: Mix,
    seed: u64,
    tr: &Tracer,
    budget: usize,
    f: impl FnOnce(&Session) -> R,
) -> (f64, R) {
    let t = Instant::now();
    let (model, model_digest) = load_model();
    let model = Arc::new(model);
    let inputs = Inputs::new(mix, seed, tr);
    let incr = Arc::new(IncrementalAnalysisManager::new());
    let server = Server::with_incremental(
        Arc::clone(&model),
        serve_config(),
        None,
        Some(Arc::clone(&incr)),
    );
    let path = PathBuf::from(format!(".perfbench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // the first connection waits for the listener; the hot set adds one each
    let budget = budget + 1 + if mix == Mix::Repeat { HOT } else { 0 };
    let out = std::thread::scope(|scope| {
        let listener = scope.spawn(|| run_unix_socket(&server, &path, Some(budget)));
        let session = Session {
            server: &server,
            incr: &incr,
            inputs: &inputs,
            model: &model,
            model_digest: &model_digest,
            path: &path,
            budget,
            used: AtomicUsize::new(1),
            prefix_done: AtomicUsize::new(0),
            prefix_rss_mb: Mutex::new(None),
        };
        wait_for_listener(&path);
        if mix == Mix::Repeat {
            store_hot_set(&session);
        }
        let setup_s = t.elapsed().as_secs_f64();
        let r = f(&session);
        for _ in session.used.load(Ordering::SeqCst).min(budget)..budget {
            drop(UnixStream::connect(&path).expect("teardown connection"));
        }
        listener
            .join()
            .expect("socket listener thread")
            .expect("socket listener");
        (setup_s, r)
    });
    let _ = std::fs::remove_file(&path);
    out
}

/// Opens (and closes) the first connection once the listener is bound.
fn wait_for_listener(path: &Path) {
    let t = Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(_) => return,
            Err(e) if t.elapsed() > Duration::from_secs(10) => {
                panic!("cannot connect to {}: {e}", path.display())
            }
            Err(_) => std::thread::sleep(Duration::from_micros(50)),
        }
    }
}

/// Sends every hot module once, split across the clients, so the measured
/// requests find them in the response store.
fn store_hot_set(s: &Session) {
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                for (r, m) in s.inputs.modules.iter().enumerate().skip(c).step_by(CLIENTS) {
                    assert!(s.claim_connection(), "the budget covers the hot set");
                    let reply = s.round_trip(&Inputs::line(format!("hot-{r}"), m));
                    match reply.as_deref().map(str::trim_end).map(parse_response) {
                        Some(Ok(Response::Ok(_))) => {}
                        other => panic!("hot module {r} was not stored: {other:?}"),
                    }
                }
            });
        }
    });
}

/// Deterministic outputs of the prefix requests.
struct PrefixOut {
    digest: String,
    final_reward: f64,
    size_reduction_pct: f64,
    cycle_reduction_pct: f64,
}

fn prefix_out(results: &[&Answer], alpha: f64, beta: f64) -> PrefixOut {
    let mut d = Digest::default();
    for r in results {
        r.digest(&mut d);
    }
    let tail: Vec<f64> = results
        .iter()
        .rev()
        .take(50)
        .map(|r| r.episode_reward(alpha, beta))
        .collect();
    let size: Vec<f64> = results
        .iter()
        .map(|r| r.size_after as f64 / r.size_before as f64)
        .collect();
    let cycles: Vec<f64> = results
        .iter()
        .map(|r| r.cycles_after / r.cycles_before)
        .collect();
    PrefixOut {
        digest: d.hex(),
        final_reward: tail.iter().sum::<f64>() / tail.len().max(1) as f64,
        size_reduction_pct: 100.0 * (1.0 - util::geomean(&size)),
        cycle_reduction_pct: 100.0 * (1.0 - util::geomean(&cycles)),
    }
}

pub fn run(mix: Mix, seed: u64, seconds: f64) -> Outcome {
    let off = Tracer::new(false);
    let mut setup_s = Vec::new();
    // the measured session is the last set-up
    while util::more_setups(&setup_s, 1) {
        setup_s.push(session(mix, seed, &off, 0, |_| ()).0);
    }
    let (prefix, max_rps) = match mix {
        Mix::Fresh => (FRESH_PREFIX, FRESH_MAX_RPS),
        Mix::Repeat => (REPEAT_PREFIX, REPEAT_MAX_RPS),
    };
    let budget = prefix * CLIENTS + (seconds * max_rps) as usize;
    let (last_setup, (samples, window, model_digest, alpha, beta, rss, exhausted)) =
        session(mix, seed, &off, budget, |s| {
            let (samples, window) = drive(s, seconds, prefix);
            let env = &s.model.env;
            let rss = s.prefix_rss_mb.lock().expect("rss slot lock").take();
            let digest = s.model_digest.to_string();
            let exhausted = s.exhausted();
            (samples, window, digest, env.alpha, env.beta, rss, exhausted)
        });
    setup_s.push(last_setup);

    let mut failures = Failures::default();
    let mut latencies = Vec::new();
    let mut prefix_results = Vec::new();
    let mut pairs: HashMap<usize, Pair> = HashMap::new();
    let mut edits = 0u64;
    for s in &samples {
        latencies.push(s.latency_ms);
        edits += s.edit as u64;
        match &s.outcome {
            Ok(reply) => {
                let r = &reply.answer;
                if s.index < prefix {
                    prefix_results.push(r);
                }
                // one check per distinct (input, output) pair
                pairs
                    .entry(Arc::as_ptr(&s.input) as usize)
                    .or_insert_with(|| Pair {
                        input: (*s.input).clone(),
                        output: (*r.module).clone(),
                    });
            }
            Err(kind) => *failures.by_kind.entry(kind.clone()).or_default() += 1,
        }
    }
    let complete = prefix_results.len() == prefix * CLIENTS;
    let out = prefix_out(&prefix_results, alpha, beta);
    let pairs: Vec<Pair> = pairs.into_values().collect();
    let check_failures = check_pairs(&pairs, util::nproc());
    for f in &check_failures {
        println!("check failed: {f}");
    }
    if !complete {
        println!("check failed: the deterministic prefix did not complete");
    }
    if exhausted {
        println!("check failed: the clients used up the budget of {budget} connections");
    }
    // rollout steps of the requests the store did not answer
    let steps: usize = samples
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok())
        .filter(|r| !r.cached)
        .map(|r| r.answer.actions.len())
        .sum();
    let (tail_pct, tail_ms) = util::tail(&latencies);
    println!(
        "{} requests ({edits} edits) in {window:.3} s from {CLIENTS} clients; model {model_digest}; \
         response digest {} over the first {prefix} requests per client; {} distinct outputs checked",
        samples.len(),
        out.digest,
        pairs.len()
    );
    println!("tail_ms is p{tail_pct} of {} requests", latencies.len());
    if mix == Mix::Repeat {
        let p50_of = |edit: bool| {
            let xs: Vec<f64> = samples
                .iter()
                .filter(|s| s.edit == edit)
                .map(|s| s.latency_ms)
                .collect();
            (xs.len(), median(&xs))
        };
        let ((n_edit, edit_ms), (n_other, other_ms)) = (p50_of(true), p50_of(false));
        println!(
            "edit requests: {n_edit}, p50 {edit_ms:.3} ms; other requests: {n_other}, p50 {other_ms:.3} ms"
        );
    }
    failures.print();
    Outcome {
        correct: check_failures.is_empty() && complete && failures.total() == 0 && !exhausted,
        attempted: samples.len() as u64,
        failed: failures.total(),
        metrics: vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("peak_rss_mb", rss.unwrap_or_else(util::peak_rss_mb), "MiB"),
            Metric::new("steps_per_s", steps as f64 / window, "1/s"),
            Metric::new("final_reward", out.final_reward, "reward"),
            Metric::new("rps", samples.len() as f64 / window, "1/s"),
            Metric::new("p50_ms", median(&latencies), "ms"),
            Metric::new("tail_ms", tail_ms, "ms"),
            Metric::new("size_reduction_pct", out.size_reduction_pct, "%"),
            Metric::new("cycle_reduction_pct", out.cycle_reduction_pct, "%"),
        ],
    }
}

/// The server's request path replayed serially, layer by layer.
struct ReplayServer<'t> {
    tr: &'t Tracer,
    model: &'t TrainedModel,
    policy: Policy,
    cache: Arc<EvalCache>,
    store: HashMap<(ModuleHash, TargetArch, u64), Answer>,
    cfg: ServeConfig,
    counters: Counters,
}

impl<'t> ReplayServer<'t> {
    fn new(tr: &'t Tracer, model: &'t TrainedModel) -> ReplayServer<'t> {
        let cfg = serve_config();
        ReplayServer {
            tr,
            model,
            policy: model.agent.policy(),
            cache: Arc::new(
                EvalCache::sharded(cfg.cache_capacity, cfg.workers)
                    .with_incremental(Some(Arc::new(IncrementalAnalysisManager::new()))),
            ),
            store: HashMap::new(),
            cfg,
            counters: Counters::default(),
        }
    }

    fn handle(&mut self, line: &str) -> Answer {
        let tr = self.tr;
        tr.span("serve.request", || {
            let req = tr
                .span("serve.decode", || parse_request(line))
                .expect("replayed request decodes");
            assert!(req.module.len() <= self.cfg.max_module_bytes);
            let module = tr
                .span("ir.parse", || parse_module(&req.module))
                .expect("replayed module parses");
            tr.span("ir.verify", || verify_module(&module))
                .expect("replayed module verifies");
            let steps = req
                .max_steps
                .unwrap_or(self.cfg.max_steps)
                .clamp(1, self.cfg.max_steps);
            let hash = tr.span("ir.hash", || posetrl_ir::module_hash(&module));
            let key = (hash, req.arch, steps);
            let hit = tr.span("serve.store", || self.store.get(&key).cloned());
            let (result, cached) = match hit {
                Some(r) => (r, true),
                None => {
                    let r = tr.span("core.rollout", || {
                        let mut env_cfg = self.model.env.clone();
                        env_cfg.arch = req.arch;
                        env_cfg.episode_len = steps as usize;
                        let mut env = ReplayEnv::new(
                            tr,
                            env_cfg,
                            self.model.actions.clone(),
                            Arc::clone(&self.cache),
                        );
                        let before = env.measure_module(&module);
                        let mut state = env.reset(module);
                        let mut actions = Vec::new();
                        loop {
                            let a = tr.span("rl.forward", || self.policy.act_greedy(&state));
                            actions.push(a as u64);
                            let (next, _, done) = env.step(a);
                            state = next;
                            if done {
                                break;
                            }
                        }
                        let after = env.measure_module(env.module());
                        let text = tr.span("ir.print", || print_module(env.module()));
                        self.counters.action_runs += env.counters.action_runs;
                        self.counters.insts_after += env.counters.insts_after;
                        Answer {
                            module: Arc::new(text),
                            actions,
                            size_before: before.size,
                            size_after: after.size,
                            cycles_before: before.flat_cycles,
                            cycles_after: after.flat_cycles,
                        }
                    });
                    self.store.insert(key, r.clone());
                    (r, false)
                }
            };
            tr.span("serve.encode", || {
                Response::Ok(OkResponse {
                    id: req.id,
                    module: (*result.module).clone(),
                    actions: result.actions.clone(),
                    size_before: result.size_before,
                    size_after: result.size_after,
                    cycles_before: result.cycles_before,
                    cycles_after: result.cycles_after,
                    wall_us: 0,
                    cached,
                    shard: 0,
                    batch: 0,
                })
                .to_json()
            });
            result
        })
    }
}

/// Replays `lines` (after storing the hot set untraced, for
/// `serve_repeat`); returns the results, wall time and work counters.
fn replay(
    tr: &Tracer,
    model: &TrainedModel,
    inputs: &Inputs,
    lines: &[String],
) -> (Vec<Answer>, f64, Counters) {
    let off = Tracer::new(false);
    let mut warm = ReplayServer::new(&off, model);
    if inputs.mix == Mix::Repeat {
        for (r, m) in inputs.modules.iter().enumerate() {
            warm.handle(&Inputs::line(format!("hot-{r}"), m));
        }
    }
    let mut srv = ReplayServer {
        tr,
        counters: Counters::default(),
        ..warm
    };
    let t = Instant::now();
    let results = lines
        .iter()
        .enumerate()
        .map(|(op, l)| {
            tr.set_op(op as u64);
            srv.handle(l)
        })
        .collect();
    let wall = t.elapsed().as_secs_f64();
    (results, wall, srv.counters)
}

pub fn run_traced(mix: Mix, seed: u64, spans: &Path) -> Outcome {
    let setup_tr = Tracer::new(true);
    let per_client = match mix {
        Mix::Fresh => FRESH_TRACE,
        Mix::Repeat => REPEAT_TRACE,
    };
    let (_, r) = session(mix, seed, &setup_tr, CLIENTS * per_client, |s| {
        let before = s.server.stats();
        let embed_before = s.incr.stats().embed;
        let (samples, _) = drive(s, 0.0, per_client);
        let after = s.server.stats();
        let embed_after = s.incr.stats().embed;
        // replay the clients' requests interleaved round-robin
        let mut order: Vec<(usize, usize)> = samples.iter().map(|x| (x.client, x.index)).collect();
        order.sort_by_key(|&(c, i)| (i, c));
        let lines: Vec<String> = order
            .iter()
            .map(|&(c, i)| s.inputs.request(c, i, &setup_tr).line)
            .collect();
        // a discarded warm-up replay, then untraced replays before and after
        // the traced one, so drift falls on both sides of the overhead
        replay(&Tracer::new(false), s.model, s.inputs, &lines);
        let (untraced, untraced_a, _) = replay(&Tracer::new(false), s.model, s.inputs, &lines);
        let tr = Tracer::new(true);
        let (replayed, traced_s, counters) = replay(&tr, s.model, s.inputs, &lines);
        let untraced_b = replay(&Tracer::new(false), s.model, s.inputs, &lines).1;
        println!("replay: untraced {untraced_a:.3} s, traced {traced_s:.3} s, untraced {untraced_b:.3} s");
        let untraced_s = (untraced_a + untraced_b) / 2.0;

        let digest = |rs: &mut dyn Iterator<Item = &Answer>| {
            let mut d = Digest::default();
            rs.for_each(|r| r.digest(&mut d));
            d.hex()
        };
        let stable = digest(&mut untraced.iter()) == digest(&mut replayed.iter());
        let by_key: HashMap<(usize, usize), &Answer> =
            order.iter().copied().zip(&replayed).collect();
        let reference: Vec<&Answer> = samples
            .iter()
            .filter_map(|x| x.outcome.as_ref().ok().map(|r| &r.answer))
            .collect();
        let ref_digest = digest(&mut reference.iter().copied());
        let rep_digest = digest(&mut samples.iter().map(|x| by_key[&(x.client, x.index)]));
        println!("reference digest {ref_digest} / replay digest {rep_digest}");
        let matches = reference.len() == samples.len() && ref_digest == rep_digest;
        let wall_us: Vec<f64> = samples
            .iter()
            .filter_map(|x| x.outcome.as_ref().ok().map(|r| r.wall_us as f64))
            .collect();
        let summary = tr.summary();
        layers::print_passes(&summary);
        tr.write_jsonl(spans).expect("write the spans");
        println!("spans written to {}", spans.display());
        let d = |a: u64, b: u64| b - a;
        let layered = Layered {
            summary: &summary,
            setup: &setup_tr.summary(),
            generated: setup_tr
                .summary()
                .get("workloads.generate")
                .map_or(0, |a| a.calls),
            ops: tr.ops(),
            counters,
            wall_s: traced_s,
            untraced_s,
            root_ns: tr.root_ns(),
            rollout_ns: summary.get("core.rollout").map_or(0, |a| a.total_ns),
            step_hit_rate: rate(
                d(before.cache.step_hits, after.cache.step_hits),
                d(before.cache.step_misses, after.cache.step_misses),
            ),
            measure_hit_rate: rate(
                d(before.cache.measure_hits, after.cache.measure_hits),
                d(before.cache.measure_misses, after.cache.measure_misses),
            ),
            embed_hit_rate: rate(
                d(before.cache.embed_hits, after.cache.embed_hits),
                d(before.cache.embed_misses, after.cache.embed_misses),
            ),
            incremental_embed_hit_rate: rate(
                d(embed_before.hits, embed_after.hits),
                d(embed_before.misses, embed_after.misses),
            ),
            store_hit_rate: rate(
                d(before.store_hits, after.store_hits),
                d(before.store_misses, after.store_misses),
            ),
            batch_mean: d(before.batch.states, after.batch.states) as f64
                / d(before.batch.batches, after.batch.batches).max(1) as f64,
            server_ms: wall_us.iter().sum::<f64>() / wall_us.len().max(1) as f64 / 1e3,
            replay_match: matches,
        };
        Outcome {
            correct: stable && matches,
            attempted: lines.len() as u64,
            failed: (samples.len() - reference.len()) as u64,
            metrics: layered.metrics(),
        }
    });
    r
}
