//! A traced replica of `posetrl::env::PhaseEnv` with a cache attached.
//!
//! The replay calls the same public layer functions, in the same order, as
//! `PhaseEnv::reset`/`step` do with an `EvalCache` carrying an incremental
//! manager, so its states, rewards and modules are bit-identical to the
//! program's. Every call into a layer is wrapped in a span.

use crate::trace::Tracer;
use posetrl::cache::{MeasureMemo, StepMemo};
use posetrl::env::{EnvConfig, StateEncoding};
use posetrl::{ActionSet, EvalCache};
use posetrl_analyze::{IncrementalAnalysisManager, SanitizeLevel};
use posetrl_embed::{EmbedConfig, Embedder};
use posetrl_ir::{function_fingerprint, module_hash, Module, ModuleHash};
use posetrl_opt::manager::PassManager;
use posetrl_target::{mca, size::object_size};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

/// Work counters the spans do not carry.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub action_runs: u64,
    pub insts_after: u64,
}

pub struct ReplayEnv<'t> {
    tr: &'t Tracer,
    cfg: EnvConfig,
    actions: ActionSet,
    sigs: Vec<u64>,
    /// Span names per action, `opt.pass.<name>` for each pass.
    pass_spans: Vec<Vec<&'static str>>,
    pm: PassManager,
    embedder: Embedder,
    embed_cfg_digest: u128,
    cache: Arc<EvalCache>,
    incr: Arc<IncrementalAnalysisManager>,
    module: Option<Module>,
    cur: ModuleHash,
    base_size: f64,
    base_cycles: f64,
    last_size: f64,
    last_cycles: f64,
    steps: usize,
    pub counters: Counters,
}

/// Interns `opt.pass.<name>` span names (a few dozen, leaked once).
fn pass_span(name: &str) -> &'static str {
    static NAMES: LazyLock<Mutex<HashMap<String, &'static str>>> = LazyLock::new(Default::default);
    NAMES
        .lock()
        .expect("pass-name table lock")
        .entry(name.to_string())
        .or_insert_with(|| Box::leak(format!("opt.pass.{name}").into_boxed_str()))
}

impl<'t> ReplayEnv<'t> {
    /// # Panics
    ///
    /// Panics on an environment configuration the replica does not
    /// reproduce (histogram states, static features, sanitizers).
    pub fn new(tr: &'t Tracer, cfg: EnvConfig, actions: ActionSet, cache: Arc<EvalCache>) -> Self {
        assert!(
            cfg.encoding == StateEncoding::Ir2Vec
                && !cfg.static_features
                && cfg.sanitize == SanitizeLevel::Off,
            "replay reproduces the IR2Vec, feature-free, unsanitized environment only"
        );
        let incr = Arc::clone(cache.incremental().expect("replay cache carries a manager"));
        let sigs = actions
            .sequences
            .iter()
            .map(|passes| {
                let mut joined = String::new();
                for p in passes {
                    joined.push_str(p);
                    joined.push('\x1f');
                }
                posetrl_embed::fnv1a(&joined)
            })
            .collect();
        let pass_spans = actions
            .sequences
            .iter()
            .map(|s| s.iter().map(|p| pass_span(p)).collect())
            .collect();
        let embedder = Embedder::new(EmbedConfig::default());
        let embed_cfg_digest = posetrl_ir::digest_str(&format!("{:?}", embedder.config()));
        ReplayEnv {
            tr,
            cfg,
            actions,
            sigs,
            pass_spans,
            pm: PassManager::new(),
            embedder,
            embed_cfg_digest,
            cache,
            incr,
            module: None,
            cur: ModuleHash(0),
            base_size: 0.0,
            base_cycles: 0.0,
            last_size: 0.0,
            last_cycles: 0.0,
            steps: 0,
            counters: Counters::default(),
        }
    }

    pub fn module(&self) -> &Module {
        self.module.as_ref().expect("replay env reset")
    }

    pub fn hash(&self, m: &Module) -> ModuleHash {
        self.tr.span("ir.hash", || module_hash(m))
    }

    /// Hashes and measures `m` through the cache (the server's `measured`).
    pub fn measure_module(&self, m: &Module) -> MeasureMemo {
        let h = self.hash(m);
        self.measure(h, m)
    }

    fn measure(&self, h: ModuleHash, m: &Module) -> MeasureMemo {
        let arch = self.cfg.arch;
        if let Some(memo) = self
            .tr
            .span("core.cache.get", || self.cache.get_measure(h, arch))
        {
            return memo;
        }
        let report = self.tr.span("target.mca", || mca::analyze(m, arch));
        let size = self.tr.span("target.size", || object_size(m, arch).total);
        let memo = MeasureMemo {
            size,
            flat_cycles: report.flat_cycles,
            throughput: report.throughput,
        };
        self.tr
            .span("core.cache.put", || self.cache.put_measure(h, arch, memo));
        memo
    }

    fn encode(&self, h: ModuleHash, m: &Module) -> Vec<f64> {
        let enc = self.cfg.encoding as u8;
        if let Some(v) = self
            .tr
            .span("core.cache.get", || self.cache.get_embed(h, enc))
        {
            return (*v).clone();
        }
        let v = self.tr.span("embed.module", || {
            self.embedder.embed_module_with(m, |e, f| {
                let key = (function_fingerprint(m, f), self.embed_cfg_digest);
                self.incr.embed_memo(key, || e.embed_function(f))
            })
        });
        self.tr
            .span("core.cache.put", || self.cache.put_embed(h, enc, v.clone()));
        v
    }

    pub fn reset(&mut self, module: Module) -> Vec<f64> {
        self.cur = self.hash(&module);
        let meas = self.measure(self.cur, &module);
        self.base_size = (meas.size as f64).max(1.0);
        self.base_cycles = meas.flat_cycles.max(1.0);
        self.last_size = meas.size as f64;
        self.last_cycles = meas.flat_cycles;
        self.steps = 0;
        let state = self.encode(self.cur, &module);
        self.module = Some(module);
        state
    }

    /// Applies action `a`; returns (state, reward, done) per Eqns 1–3.
    pub fn step(&mut self, a: usize) -> (Vec<f64>, f64, bool) {
        let pre = self.cur;
        let sig = self.sigs[a];
        let post = match self
            .tr
            .span("core.cache.get", || self.cache.get_step(pre, sig))
        {
            Some(memo) => {
                self.module = Some(memo.module.clone());
                memo.post
            }
            None => {
                let mut module = self.module.take().expect("replay env reset");
                let (tr, pm) = (self.tr, &self.pm);
                let (passes, names) = (&self.actions.sequences[a], &self.pass_spans[a]);
                tr.span("opt.action", || {
                    for (p, name) in passes.iter().zip(names) {
                        tr.span(name, || pm.run_pass(&mut module, p))
                            .expect("action passes are registered");
                    }
                });
                self.counters.action_runs += 1;
                self.counters.insts_after += module.num_insts() as u64;
                let post = self.hash(&module);
                let memo = StepMemo {
                    module: module.clone(),
                    post,
                };
                self.tr
                    .span("core.cache.put", || self.cache.put_step(pre, sig, memo));
                self.module = Some(module);
                post
            }
        };
        self.cur = post;
        let module = self.module.take().expect("replay env reset");
        let meas = self.measure(post, &module);
        let size = meas.size as f64;
        let cycles = meas.flat_cycles;
        let r_size = (self.last_size - size) / self.base_size;
        let r_tp = (self.last_cycles - cycles) / self.base_cycles;
        let reward = self.cfg.alpha * r_size + self.cfg.beta * r_tp;
        self.last_size = size;
        self.last_cycles = cycles;
        self.steps += 1;
        let state = self.encode(post, &module);
        self.module = Some(module);
        (state, reward, self.steps >= self.cfg.episode_len)
    }
}
