//! The long-running optimization server.
//!
//! Architecture (DESIGN.md §12):
//!
//! - **Sharded cache + worker pool.** One [`EvalCache`] with as many
//!   shards as workers. The cache routes every key to its shard by
//!   content, whichever thread asks, so any worker can run any job and
//!   a response's `shard` is still `cache.shard_of(module_hash)`.
//! - **Batched inference.** Workers block in the shared [`Batcher`] at
//!   every decision point; concurrent requests ride one network sweep.
//!   Batched decisions are bit-identical to solo ones, so responses are
//!   bit-identical for any worker count, batch timing, or queue order.
//! - **Admission control.** All workers take jobs from one bounded
//!   queue of `workers × queue_depth` slots, so a miss waits only while
//!   every worker is busy; a full queue answers `overloaded` immediately
//!   instead of building unbounded backlog. Budgets (module bytes,
//!   episode steps) are deterministic request properties, never
//!   wall-clock, so a given request stream always produces the same
//!   accepted/rejected partition.
//! - **Two-tier response store.** Results are memoized by
//!   `(module_hash, arch, steps)`; a repeated module is a pure store hit
//!   that touches neither the worker pool nor the network. In front of
//!   it, a raw tier maps the exact request bytes (with arch and steps)
//!   that once hit a stored key to that key, so an identical repeat
//!   skips parse, verify and `module_hash` as well.

use crate::batcher::{BatchStats, Batcher};
use crate::config::ServeConfig;
use crate::protocol::{parse_request, ErrorKind, OkResponse, Response};
use posetrl::cache::MeasureMemo;
use posetrl::env::PhaseEnv;
use posetrl::{CacheStats, EvalCache, TrainedModel};
use posetrl_analyze::Sanitizer;
use posetrl_ir::parser::parse_module;
use posetrl_ir::printer::print_module;
use posetrl_ir::{module_hash, Module, ModuleHash};
use posetrl_target::{mca, size::object_size, TargetArch};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash, RandomState};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

type StoreKey = (ModuleHash, TargetArch, u64);

#[derive(Clone)]
struct StoredResult {
    module: Arc<String>,
    actions: Arc<Vec<u64>>,
    size_before: u64,
    size_after: u64,
    cycles_before: f64,
    cycles_after: f64,
    shard: u64,
}

impl StoredResult {
    fn response(&self, id: String, start: Instant, cached: bool, batch: u64) -> Response {
        Response::Ok(OkResponse {
            id,
            module: (*self.module).clone(),
            actions: (*self.actions).clone(),
            size_before: self.size_before,
            size_after: self.size_after,
            cycles_before: self.cycles_before,
            cycles_after: self.cycles_after,
            wall_us: start.elapsed().as_micros() as u64,
            cached,
            shard: self.shard,
            batch,
        })
    }
}

/// Request bytes that parsed, verified and hashed to a stored key.
struct RawEntry {
    text: Box<str>,
    key: StoreKey,
}

/// A map that evicts its oldest keys to stay within a capacity.
struct FifoMap<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
}

impl<K, V> Default for FifoMap<K, V> {
    fn default() -> Self {
        FifoMap {
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }
}

impl<K: Hash + Eq + Copy, V> FifoMap<K, V> {
    fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Replaces the value of a present key in place; a new key evicts
    /// the oldest ones while the map is at `capacity`.
    fn insert(&mut self, key: K, value: V, capacity: usize) {
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = value;
            return;
        }
        while self.map.len() >= capacity {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&old);
        }
        self.order.push_back(key);
        self.map.insert(key, value);
    }
}

/// The response store: canonical results by `(module_hash, arch, steps)`
/// and, in front of them, a raw tier from a digest of the exact request
/// bytes to the canonical key they hashed to. Both tiers are bounded by
/// the store capacity.
#[derive(Default)]
struct Store {
    results: FifoMap<StoreKey, StoredResult>,
    raw: FifoMap<u64, RawEntry>,
}

impl Store {
    /// The stored result for exactly `text` at `(arch, steps)`. Compares
    /// the full bytes, so a digest collision is a miss, and answers only
    /// while the canonical entry is still stored.
    fn raw_get(
        &self,
        digest: u64,
        text: &str,
        arch: TargetArch,
        steps: u64,
    ) -> Option<StoredResult> {
        let entry = self.raw.get(&digest)?;
        let (_, a, s) = entry.key;
        if a != arch || s != steps || *entry.text != *text {
            return None;
        }
        self.results.get(&entry.key).cloned()
    }
}

struct Job {
    id: String,
    module: Module,
    hash: ModuleHash,
    arch: TargetArch,
    steps: u64,
    shard: usize,
    reply: SyncSender<Response>,
    start: Instant,
}

struct Inner {
    cfg: ServeConfig,
    model: Arc<TrainedModel>,
    cache: Arc<EvalCache>,
    sanitizer: Option<Arc<Sanitizer>>,
    batcher: Batcher,
    store: Mutex<Store>,
    /// Randomly keyed, so request bytes cannot be crafted to collide in
    /// the raw tier.
    raw_keys: RandomState,
    store_hits: AtomicU64,
    raw_hits: AtomicU64,
    store_misses: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    overloads: AtomicU64,
}

/// Aggregate server counters, for `servestats` and the load generator.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Requests submitted (including rejected ones).
    pub requests: u64,
    /// Success responses produced.
    pub ok: u64,
    /// Error responses produced (any kind).
    pub errors: u64,
    /// Subset of `errors` rejected by admission control.
    pub overloads: u64,
    /// Content-addressed response-store hits.
    pub store_hits: u64,
    /// Subset of `store_hits` answered by the raw-bytes tier, without
    /// parsing, verifying or hashing the module.
    pub raw_hits: u64,
    /// Response-store misses (full rollouts).
    pub store_misses: u64,
    /// Aggregate eval-cache counters.
    pub cache: CacheStats,
    /// Per-shard eval-cache counters, in shard order.
    pub shards: Vec<CacheStats>,
    /// Inference batching counters.
    pub batch: BatchStats,
}

impl ServerStats {
    /// Response-store hit rate in `[0, 1]` (0 when idle).
    pub fn store_hit_rate(&self) -> f64 {
        let total = self.store_hits + self.store_misses;
        if total == 0 {
            0.0
        } else {
            self.store_hits as f64 / total as f64
        }
    }
}

/// A response that may still be in flight.
pub struct Pending {
    rx: Receiver<Response>,
}

impl Pending {
    /// Blocks until the response is ready.
    pub fn wait(self) -> Response {
        self.rx
            .recv()
            .unwrap_or_else(|_| Response::err(None, ErrorKind::Internal, "worker disconnected"))
    }

    /// The response if it is ready now, else the still-pending request.
    fn ready(self) -> Result<Response, Pending> {
        match self.rx.try_recv() {
            Ok(resp) => Ok(resp),
            Err(TryRecvError::Empty) => Err(self),
            Err(TryRecvError::Disconnected) => Ok(self.wait()),
        }
    }
}

/// The server: worker pool + batcher + caches behind a line-oriented API.
pub struct Server {
    inner: Arc<Inner>,
    queue: SyncSender<Job>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds a server over a trained model. `sanitizer`, when given, is
    /// attached to every rollout (its panics become `rollout-failed`
    /// responses rather than crashing the worker).
    pub fn new(
        model: Arc<TrainedModel>,
        cfg: ServeConfig,
        sanitizer: Option<Arc<Sanitizer>>,
    ) -> Server {
        // Attach a shared per-function incremental analysis manager to the
        // sharded cache (unless POSETRL_INCREMENTAL=0): every worker env
        // that adopts the cache then memoizes embeddings, lints, absint
        // summaries and validate obligations by function content.
        // Results are bit-identical either way.
        Server::with_incremental(
            model,
            cfg,
            sanitizer,
            posetrl_analyze::IncrementalAnalysisManager::from_env(),
        )
    }

    /// [`Server::new`] with an explicit incremental analysis manager
    /// (`None` pins incremental mode off regardless of
    /// `POSETRL_INCREMENTAL`). Tests use this to compare modes without
    /// mutating the process environment.
    pub fn with_incremental(
        model: Arc<TrainedModel>,
        cfg: ServeConfig,
        sanitizer: Option<Arc<Sanitizer>>,
        incremental: Option<Arc<posetrl_analyze::IncrementalAnalysisManager>>,
    ) -> Server {
        let cfg = cfg.normalized();
        let cache = Arc::new(
            EvalCache::sharded(cfg.cache_capacity, cfg.workers).with_incremental(incremental),
        );
        let batcher = Batcher::new(model.agent.policy());
        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            model,
            cache,
            sanitizer,
            batcher,
            store: Mutex::new(Store::default()),
            raw_keys: RandomState::new(),
            store_hits: AtomicU64::new(0),
            raw_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            overloads: AtomicU64::new(0),
        });
        let (queue, rx) = sync_channel::<Job>(cfg.workers * cfg.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("posetrl-serve-worker-{w}"))
                    .spawn(move || loop {
                        // the lock is held only while waiting for the next job
                        let Ok(job) = rx.lock().expect("job queue lock").recv() else {
                            break;
                        };
                        let reply = job.reply.clone();
                        let resp = process(&inner, job);
                        // receiver may have given up; dropping the response is fine
                        let _ = reply.try_send(resp);
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Server {
            inner,
            queue,
            workers,
        }
    }

    /// Admission-control configuration in effect.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    /// Submits one raw request line; never blocks on the worker pool.
    ///
    /// Parse, budget, and admission failures resolve the returned
    /// [`Pending`] immediately with a structured error response.
    pub fn submit(&self, line: &str) -> Pending {
        let (tx, rx) = sync_channel::<Response>(1);
        let resp = self.admit(line, &tx);
        if let Some(resp) = resp {
            self.note(&resp);
            let _ = tx.try_send(resp);
        }
        Pending { rx }
    }

    /// Submits and waits — the one-shot convenience path.
    pub fn handle(&self, line: &str) -> Response {
        self.submit(line).wait()
    }

    /// Runs the request through parse → budgets → raw store tier →
    /// module checks → canonical store tier → admission. Returns
    /// `Some(response)` when it resolved synchronously, `None` when a
    /// worker now owns the reply channel.
    fn admit(&self, line: &str, reply: &SyncSender<Response>) -> Option<Response> {
        let inner = &self.inner;
        inner.requests.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let req = match parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                return Some(Response::Err(crate::protocol::ErrResponse {
                    id: None,
                    error: e,
                }))
            }
        };
        if req.module.len() > inner.cfg.max_module_bytes {
            return Some(Response::err(
                Some(req.id),
                ErrorKind::ModuleTooLarge,
                format!(
                    "module is {} bytes; budget is {} (POSETRL_SERVE_MAX_MODULE_BYTES)",
                    req.module.len(),
                    inner.cfg.max_module_bytes
                ),
            ));
        }
        let steps = req
            .max_steps
            .unwrap_or(inner.cfg.max_steps)
            .clamp(1, inner.cfg.max_steps);
        // raw tier: these exact bytes already parsed, verified and hashed
        // to a stored key, so the checks below would replay the same result
        let digest = inner
            .raw_keys
            .hash_one((req.module.as_str(), req.arch, steps));
        let raw_hit =
            inner
                .store
                .lock()
                .expect("store lock")
                .raw_get(digest, &req.module, req.arch, steps);
        if let Some(hit) = raw_hit {
            inner.store_hits.fetch_add(1, Ordering::Relaxed);
            inner.raw_hits.fetch_add(1, Ordering::Relaxed);
            return Some(hit.response(req.id, start, true, 0));
        }
        let module = match parse_module(&req.module) {
            Ok(m) => m,
            Err(e) => {
                return Some(Response::err(
                    Some(req.id),
                    ErrorKind::BadModule,
                    format!("module does not parse: {e:?}"),
                ))
            }
        };
        if let Err(e) = posetrl_ir::verifier::verify_module(&module) {
            return Some(Response::err(
                Some(req.id),
                ErrorKind::BadModule,
                format!("module does not verify: {e}"),
            ));
        }
        let hash = module_hash(&module);
        let key = (hash, req.arch, steps);
        // canonical tier: a repeat of the module in any formatting is a
        // pure hit, and teaches the raw tier these bytes
        {
            let mut store = inner.store.lock().expect("store lock");
            if let Some(hit) = store.results.get(&key).cloned() {
                let entry = RawEntry {
                    text: req.module.into_boxed_str(),
                    key,
                };
                store.raw.insert(digest, entry, inner.cfg.store_capacity);
                drop(store);
                inner.store_hits.fetch_add(1, Ordering::Relaxed);
                return Some(hit.response(req.id, start, true, 0));
            }
        }
        inner.store_misses.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            id: req.id,
            module,
            hash,
            arch: req.arch,
            steps,
            shard: inner.cache.shard_of(hash),
            reply: reply.clone(),
            start,
        };
        match self.queue.try_send(job) {
            Ok(()) => None,
            Err(TrySendError::Full(job)) => {
                inner.overloads.fetch_add(1, Ordering::Relaxed);
                Some(Response::err(
                    Some(job.id),
                    ErrorKind::Overloaded,
                    format!(
                        "job queue is full ({} workers × {} deep; POSETRL_SERVE_QUEUE)",
                        inner.cfg.workers, inner.cfg.queue_depth
                    ),
                ))
            }
            Err(TrySendError::Disconnected(job)) => Some(Response::err(
                Some(job.id),
                ErrorKind::Internal,
                "worker pool is shut down",
            )),
        }
    }

    fn note(&self, resp: &Response) {
        if resp.is_ok() {
            self.inner.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot across the pool.
    pub fn stats(&self) -> ServerStats {
        let i = &self.inner;
        ServerStats {
            requests: i.requests.load(Ordering::Relaxed),
            ok: i.ok.load(Ordering::Relaxed),
            errors: i.errors.load(Ordering::Relaxed),
            overloads: i.overloads.load(Ordering::Relaxed),
            store_hits: i.store_hits.load(Ordering::Relaxed),
            raw_hits: i.raw_hits.load(Ordering::Relaxed),
            store_misses: i.store_misses.load(Ordering::Relaxed),
            cache: i.cache.stats(),
            shards: i.cache.shard_stats(),
            batch: i.batcher.stats(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // close the queue so the workers drain it and exit
        drop(std::mem::replace(&mut self.queue, sync_channel(0).0));
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Measures `m` through the shared cache (bit-identical to the env's own
/// measurement path and memoized under the same key).
fn measured(cache: &EvalCache, m: &Module, arch: TargetArch) -> MeasureMemo {
    let h = module_hash(m);
    if let Some(memo) = cache.get_measure(h, arch) {
        return memo;
    }
    let report = mca::analyze(m, arch);
    let memo = MeasureMemo {
        size: object_size(m, arch).total,
        flat_cycles: report.flat_cycles,
        throughput: report.throughput,
    };
    cache.put_measure(h, arch, memo);
    memo
}

struct RolloutOut {
    module_text: String,
    actions: Vec<u64>,
    before: MeasureMemo,
    after: MeasureMemo,
    max_batch: u64,
}

fn rollout(inner: &Inner, job: &Job) -> RolloutOut {
    let mut env_cfg = inner.model.env.clone();
    env_cfg.arch = job.arch;
    env_cfg.episode_len = job.steps as usize;
    let before = measured(&inner.cache, &job.module, job.arch);
    let mut env = PhaseEnv::with_cache(
        env_cfg,
        inner.model.actions.clone(),
        Arc::clone(&inner.cache),
    );
    if inner.sanitizer.is_some() {
        env.set_sanitizer(inner.sanitizer.clone());
    }
    let mut state = env.reset(job.module.clone());
    let mut max_batch = 0u64;
    loop {
        let (a, batch) = inner.batcher.act_greedy_sized(state.clone());
        max_batch = max_batch.max(batch);
        let r = env.step(a);
        state = r.state;
        if r.done {
            break;
        }
    }
    let after = measured(&inner.cache, env.module(), job.arch);
    RolloutOut {
        module_text: print_module(env.module()),
        actions: env.applied_actions().iter().map(|&a| a as u64).collect(),
        before,
        after,
        max_batch,
    }
}

fn process(inner: &Arc<Inner>, job: Job) -> Response {
    let out = catch_unwind(AssertUnwindSafe(|| rollout(inner, &job)));
    match out {
        Ok(out) => {
            let stored = StoredResult {
                module: Arc::new(out.module_text),
                actions: Arc::new(out.actions),
                size_before: out.before.size,
                size_after: out.after.size,
                cycles_before: out.before.flat_cycles,
                cycles_after: out.after.flat_cycles,
                shard: job.shard as u64,
            };
            {
                let mut store = inner.store.lock().expect("store lock");
                let key = (job.hash, job.arch, job.steps);
                // first write wins
                if store.results.get(&key).is_none() {
                    store
                        .results
                        .insert(key, stored.clone(), inner.cfg.store_capacity);
                }
            }
            inner.ok.fetch_add(1, Ordering::Relaxed);
            stored.response(job.id, job.start, false, out.max_batch)
        }
        Err(panic) => {
            inner.errors.fetch_add(1, Ordering::Relaxed);
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("rollout panicked");
            Response::err(
                Some(job.id),
                ErrorKind::RolloutFailed,
                format!("rollout aborted: {msg}"),
            )
        }
    }
}

/// Outcome of one stdio session.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdioSummary {
    /// Request lines consumed.
    pub requests: u64,
    /// Success responses written.
    pub ok: u64,
    /// Error responses written.
    pub errors: u64,
}

fn write_response(
    output: &mut impl Write,
    resp: &Response,
    summary: &mut StdioSummary,
) -> std::io::Result<()> {
    if resp.is_ok() {
        summary.ok += 1;
    } else {
        summary.errors += 1;
    }
    let mut line = resp.to_json();
    line.push('\n');
    output.write_all(line.as_bytes())?;
    output.flush()
}

/// Drives the server from a line-oriented transport: one request per
/// input line, one response per output line, **in request order**. Up to
/// `workers × queue_depth` requests are kept in flight, so concurrent
/// batching still happens behind the ordered output. Once a request is
/// in flight, a writer thread sends each response as soon as it and
/// every earlier one are done, so a client may wait for an answer before
/// sending its next request.
///
/// # Errors
///
/// Propagates I/O errors from the transport itself; protocol problems are
/// in-band error responses.
pub fn run_stdio(
    server: &Server,
    input: impl BufRead,
    mut output: impl Write + Send,
) -> std::io::Result<StdioSummary> {
    let mut read = StdioSummary::default();
    let mut lines = input
        .lines()
        .filter(|l| !matches!(l, Ok(l) if l.trim().is_empty()));
    // answers that resolve at admission (store hits, rejections) go out
    // inline until the first request has to wait for a worker
    let first_in_flight = loop {
        let Some(line) = lines.next() else {
            return Ok(read);
        };
        let line = line?;
        read.requests += 1;
        match server.submit(&line).ready() {
            Ok(resp) => write_response(&mut output, &resp, &mut read)?,
            Err(pending) => break pending,
        }
    };
    let window = server.inner.cfg.workers * server.inner.cfg.queue_depth;
    // one credit per in-flight request; the writer returns it once the
    // response is written, and drops them all if it fails
    let (credit_tx, credit_rx) = sync_channel::<()>(window);
    for _ in 1..window {
        credit_tx.send(()).expect("credit channel has room");
    }
    let (pending_tx, pending_rx) = channel::<Pending>();
    pending_tx
        .send(first_in_flight)
        .expect("the writer has not started yet");
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> std::io::Result<StdioSummary> {
            let mut written = StdioSummary::default();
            for p in pending_rx {
                write_response(&mut output, &p.wait(), &mut written)?;
                let _ = credit_tx.send(());
            }
            Ok(written)
        });
        let mut failed = None;
        for line in lines {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            };
            if credit_rx.recv().is_err() {
                break;
            }
            read.requests += 1;
            if pending_tx.send(server.submit(&line)).is_err() {
                break;
            }
        }
        drop(pending_tx);
        let written = writer.join().expect("stdio writer thread")?;
        if let Some(e) = failed {
            return Err(e);
        }
        Ok(StdioSummary {
            requests: read.requests,
            ok: read.ok + written.ok,
            errors: read.errors + written.errors,
        })
    })
}

/// Serves JSONL sessions over a Unix domain socket, one thread per
/// connection. `max_conns` bounds how many connections to accept before
/// returning (`None` = forever), which keeps the function testable.
///
/// # Errors
///
/// Propagates bind/accept errors.
#[cfg(unix)]
pub fn run_unix_socket(
    server: &Server,
    path: &std::path::Path,
    max_conns: Option<usize>,
) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    std::thread::scope(|scope| -> std::io::Result<()> {
        for (accepted, stream) in listener.incoming().enumerate() {
            let stream = stream?;
            scope.spawn(move || {
                let reader = std::io::BufReader::new(&stream);
                let _ = run_stdio(server, reader, &stream);
                let _ = stream.shutdown(std::net::Shutdown::Both);
            });
            if max_conns.is_some_and(|n| accepted + 1 >= n) {
                break;
            }
        }
        Ok(())
    })
}
