//! Spans for the traced replay: recorded in memory around each call into
//! a layer, aggregated into per-layer self times when the run ends, and
//! written out as JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::{self, self_time};

/// Name of the root span of every op.
pub const OP: &str = "op";

/// A recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u32,
    /// A measurement the untraced path does not make (the replay's
    /// separate timing of scan materialization): left out of the op's
    /// time and of coverage.
    pub side: bool,
}

/// Handle of an open span; `None` while tracing is off.
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder. Off, it records nothing, so the same replay code
/// can keep a replica in step with the server through set-up and
/// warm-up without tracing them.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    op: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: false,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str, side: bool) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            side,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Opens the root span of the next op.
    pub fn begin_op(&mut self) -> Open {
        self.op += u32::from(self.on);
        self.open(OP, false)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        self.open(name, false)
    }

    pub fn begin_side(&mut self, name: &'static str) -> Open {
        self.open(name, true)
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        self.spans[idx].end = self.now();
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"side\":{}}}",
                s.op, s.name, s.start, s.end, s.side
            );
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}

/// Per-layer aggregates of a traced run.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Per span name: each op's summed self time (ns), over the ops that
    /// reached the layer.
    pub per_op: BTreeMap<&'static str, Vec<u64>>,
    /// Per span name: total self time (ns) over the run.
    pub total: BTreeMap<&'static str, u64>,
    /// Each op's time: root duration minus its side measurements (ns).
    pub op_times: Vec<u64>,
    /// Self time of every non-root, non-side span (ns).
    pub covered: u64,
}

impl LayerTimes {
    pub fn op_time_total(&self) -> u64 {
        self.op_times.iter().sum()
    }

    /// The median per-op self time of `name` in milliseconds, over the
    /// ops that reached it (0 when none did).
    pub fn median_ms(&self, name: &str) -> f64 {
        match self.per_op.get(name) {
            Some(v) if !v.is_empty() => {
                let ms: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e6).collect();
                stats::median(&stats::sorted(&ms))
            }
            _ => 0.0,
        }
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.total.get(name).copied().unwrap_or(0)
    }
}

/// Computes self times: each span's duration minus the union of its
/// children's intervals; side spans count toward their own name but not
/// toward op time or coverage.
pub fn aggregate(spans: &[Span]) -> LayerTimes {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut side_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
        if s.side {
            *side_ns.entry(s.op).or_default() += s.end - s.start;
        }
    }
    let mut out = LayerTimes::default();
    let mut per_op: BTreeMap<(u32, &'static str), u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == OP {
            let side = side_ns.get(&s.op).copied().unwrap_or(0);
            out.op_times.push((s.end - s.start).saturating_sub(side));
            continue;
        }
        let own = self_time(s.start, s.end, &children[i]);
        *per_op.entry((s.op, s.name)).or_default() += own;
        *out.total.entry(s.name).or_default() += own;
        if !s.side {
            out.covered += own;
        }
    }
    for ((_, name), ns) in per_op {
        out.per_op.entry(name).or_default().push(ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        op: u32,
        side: bool,
    ) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op,
            side,
        }
    }

    #[test]
    fn aggregate_splits_op_time_into_layer_self_times() {
        let spans = vec![
            span(OP, 0, 100, None, 1, false),
            span("a", 10, 50, Some(0), 1, false),
            span("b", 20, 30, Some(1), 1, false),
            span("m", 60, 80, Some(0), 1, true),
            span(OP, 200, 260, None, 2, false),
            span("b", 210, 250, Some(4), 2, false),
        ];
        let t = aggregate(&spans);
        // Op 1 loses its 20 ns side measurement.
        assert_eq!(t.op_times, vec![80, 60]);
        assert_eq!(t.total_ns("a"), 30);
        assert_eq!(t.total_ns("b"), 50);
        assert_eq!(t.total_ns("m"), 20);
        assert_eq!(t.covered, 80);
        assert_eq!(t.per_op["b"], vec![10, 40]);
        assert_eq!(t.median_ms("a"), 30.0 / 1e6);
        assert_eq!(t.median_ms("absent"), 0.0);
    }

    #[test]
    fn tracer_off_records_nothing_and_nests_when_on() {
        let mut tr = Tracer::new();
        let op = tr.begin_op();
        tr.leaf("x", || ());
        tr.end(op);
        assert!(tr.spans().is_empty());
        tr.set_on(true);
        let op = tr.begin_op();
        let outer = tr.begin("outer");
        tr.leaf("inner", || ());
        tr.end(outer);
        tr.end(op);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(1)));
        assert!(s.iter().all(|s| s.op == 1 && s.end >= s.start));
    }
}
