//! Statistics, seeded randomness, digests and process probes.

use posetrl_workloads::{generate, ProgramKind, ProgramSpec, SizeClass};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// splitmix64: the benchmark's only source of randomness, so a seed
/// fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fisher-Yates shuffle of `items` by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Mixes a workload seed with a stream label.
pub fn mix(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

const SIZES: [SizeClass; 3] = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];

/// (kind, size) strata: `stratified_spec(_, i)` falls in stratum
/// `i % STRATA`.
pub const STRATA: usize = ProgramKind::ALL.len() * SIZES.len();

/// The `i`-th module of a seeded stream that cycles through every
/// (kind, size) stratum, so any 24 consecutive modules cover all of them
/// once and runs with different seeds see the same mix.
pub fn stratified_spec(seed: u64, i: usize) -> ProgramSpec {
    let kind = ProgramKind::ALL[i % ProgramKind::ALL.len()];
    let size = SIZES[(i / ProgramKind::ALL.len()) % SIZES.len()];
    ProgramSpec {
        name: format!("bench_{i:05}"),
        kind,
        size,
        seed: mix(seed, i as u64),
    }
}

pub fn generate_stratified(seed: u64, i: usize) -> posetrl_ir::Module {
    generate(&stratified_spec(seed, i))
}

/// Whether a run should time another set-up, given the times so far and
/// the set-ups still to come: at least three in all, and more (up to
/// sixty) while together they take under a second, since a quick set-up
/// is noisy.
pub fn more_setups(times: &[f64], to_come: usize) -> bool {
    let n = times.len() + to_come;
    n < 3 || (n < 60 && times.iter().sum::<f64>() < 1.0)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (`q` in [0, 1]).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of p99/p95/p90/p75/p50 that has at least ten samples
/// beyond it, as (percentile, value). Falls back to the maximum when
/// there are too few samples for any of them.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    for p in [99.0, 95.0, 90.0, 75.0, 50.0] {
        let beyond = (xs.len() as f64 * (1.0 - p / 100.0)).floor();
        if beyond >= 10.0 {
            return (p, quantile(xs, p / 100.0));
        }
    }
    (100.0, quantile(xs, 1.0))
}

/// `hits / (hits + misses)`, 0 when idle.
pub fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// FNV-1a over a byte stream, for response digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Applies `f` to every item from `threads` threads pulling from one
/// queue; the results come back in item order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                *slots[i].lock().expect("result slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every item was mapped")
        })
        .collect()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
