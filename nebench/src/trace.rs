//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end, the span that encloses it and,
//! for per-cell work, the grid index of the cell. Its layer is the part
//! of its name before the first `.` (`netsim`, `engine.run_sweep` →
//! `engine`, ...); the benchmark's own phases (`setup`, `cold`,
//! `warm.pass`, `probe.cell`) belong to the layer `bench`. A disabled
//! tracer records nothing and only calls the closures it is given, so
//! the untraced run executes the same code path.

use bbrdom_netsim::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub cell: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn layer(&self) -> &'static str {
        match self.name.split('.').next().unwrap_or(self.name) {
            "setup" | "cold" | "warm" | "probe" => "bench",
            layer => layer,
        }
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; spans opened before it is closed become its
    /// children. Returns its id (meaningless when disabled).
    pub fn enter(&mut self, name: &'static str, cell: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, cell: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, cell);
        let r = f();
        self.exit(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of the spans called `name`, optionally only those
    /// whose parent is called `parent`.
    pub fn durations(&self, name: &str, parent: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| parent.is_none_or(|p| s.parent.map(|i| self.spans[i].name) == Some(p)))
            .map(Span::secs)
            .collect()
    }

    /// Self time per layer (s): each span's duration minus the part its
    /// children cover (children never overlap: the benchmark is serial).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *by_layer.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
        }
        by_layer
    }

    /// One JSON line per span.
    pub fn span_lines(&self) -> impl Iterator<Item = String> + '_ {
        self.spans.iter().enumerate().map(|(id, s)| {
            let mut v = Value::object();
            v.set("id", Value::U64(id as u64))
                .set("name", s.name.into())
                .set("layer", s.layer().into())
                .set("start_ns", Value::U64(s.start_ns))
                .set("end_ns", Value::U64(s.end_ns));
            if let Some(p) = s.parent {
                v.set("parent", Value::U64(p as u64));
            }
            if let Some(c) = s.cell {
                v.set("cell", Value::U64(c as u64));
            }
            v.to_json()
        })
    }
}
