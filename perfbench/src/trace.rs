//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark itself around its calls into each
//! layer's public functions; nothing inside the crates under test is
//! instrumented. Each thread keeps its own [`Recorder`]; the spans are
//! merged and written out when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// The layers a span can belong to: the workspace crates under test,
/// plus the benchmark's own root spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The benchmark harness (root spans).
    Bench,
    /// `lc-service`
    Service,
    /// `lc-driver`
    Driver,
    /// `lc-lint`
    Lint,
    /// `lc-xform`
    Xform,
    /// `lc-ir`
    Ir,
    /// `lc-runtime`
    Runtime,
    /// `lc-sched`
    Sched,
}

/// The layers under test, in report order.
pub const LAYERS: [Layer; 7] = [
    Layer::Service,
    Layer::Driver,
    Layer::Lint,
    Layer::Xform,
    Layer::Ir,
    Layer::Runtime,
    Layer::Sched,
];

impl Layer {
    /// The crate name.
    pub fn crate_name(self) -> &'static str {
        match self {
            Layer::Bench => "perfbench",
            Layer::Service => "lc-service",
            Layer::Driver => "lc-driver",
            Layer::Lint => "lc-lint",
            Layer::Xform => "lc-xform",
            Layer::Ir => "lc-ir",
            Layer::Runtime => "lc-runtime",
            Layer::Sched => "lc-sched",
        }
    }

    /// The metric-name prefix.
    pub fn key(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Service => "service",
            Layer::Driver => "driver",
            Layer::Lint => "lint",
            Layer::Xform => "xform",
            Layer::Ir => "ir",
            Layer::Runtime => "runtime",
            Layer::Sched => "sched",
        }
    }
}

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request (operation) id shared by every span of one operation.
    pub op: u64,
    /// What was timed.
    pub name: &'static str,
    /// Which layer did the work.
    pub layer: Layer,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// Per-thread span recorder.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
}

/// A handle to an open span (its index in the recorder).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Recorder {
    /// A recorder whose span ids start at `thread << 40`, so ids from
    /// different threads never collide.
    pub fn new(epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            epoch,
            next_id: thread << 40,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now.
    pub fn open(
        &mut self,
        op: u64,
        parent: Option<Open>,
        name: &'static str,
        layer: Layer,
    ) -> Open {
        let start = self.now();
        self.push(op, parent, name, layer, start, start)
    }

    /// Close a span now.
    pub fn close(&mut self, span: Open) {
        self.spans[span.0].end_ns = self.now();
    }

    /// Record a span of known duration, starting `offset_ns` after the
    /// start of `parent`. Used to lay out the per-pass durations that a
    /// [`lc_driver::PipelineTrace`] reports inside its compile span.
    pub fn synthetic(
        &mut self,
        op: u64,
        parent: Open,
        name: &'static str,
        layer: Layer,
        offset_ns: u64,
        dur_ns: u64,
    ) {
        let start = self.spans[parent.0].start_ns + offset_ns;
        self.push(op, Some(parent), name, layer, start, start + dur_ns);
    }

    fn push(
        &mut self,
        op: u64,
        parent: Option<Open>,
        name: &'static str,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
    ) -> Open {
        let parent = parent.map(|p| self.spans[p.0].id);
        self.next_id += 1;
        self.spans.push(Span {
            id: self.next_id,
            parent,
            op,
            name,
            layer,
            start_ns,
            end_ns,
        });
        Open(self.spans.len() - 1)
    }
}

/// Self time per layer, in nanoseconds, summed over `spans`: each span's
/// duration minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer).or_default() += own;
    }
    out
}

/// Render spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 110);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            parent,
            s.op,
            s.name,
            s.layer.crate_name(),
            s.start_ns,
            s.end_ns
        );
    }
    out
}
