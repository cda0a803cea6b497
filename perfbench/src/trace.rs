//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public functions. They are kept in memory, and summarised and
//! written out when the run ends; a disabled tracer runs the same code path
//! without recording, which is how the untraced replay measures tracing
//! overhead.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean inclusive milliseconds per call (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Opens a span whose name is chosen when it closes; returns its slot.
    pub fn begin(&self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        // reserve the slot now so children can name it as their parent
        let mut spans = self.spans.borrow_mut();
        let parent = self.stack.borrow().last().copied();
        spans.push(Span {
            name: "",
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op.get(),
        });
        self.stack.borrow_mut().push(spans.len() - 1);
        Some(spans.len() - 1)
    }

    /// Closes the span `begin` opened.
    pub fn end(&self, slot: Option<usize>, name: &'static str) {
        let Some(idx) = slot else { return };
        let end_ns = self.now_ns();
        let top = self.stack.borrow_mut().pop();
        assert_eq!(top, Some(idx), "spans close in the order they opened");
        let mut spans = self.spans.borrow_mut();
        spans[idx].name = name;
        spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin();
        let r = f();
        self.end(open, name);
        r
    }

    /// Per-name totals, with self time = duration minus the time covered
    /// by direct children (children never overlap: the replay is serial).
    pub fn summary(&self) -> BTreeMap<&'static str, Agg> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.calls += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Nanoseconds covered by root spans.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one JSON line (times in ns from the tracer's
    /// start; `parent` is the parent's line number, from 0).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","start":{},"end":{},"parent":{parent},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }

    /// Number of distinct operation ids seen.
    pub fn ops(&self) -> u64 {
        let spans = self.spans.borrow();
        let mut ids: Vec<u64> = spans.iter().map(|s| s.op).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len() as u64
    }
}
