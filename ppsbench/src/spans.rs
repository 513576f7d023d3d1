//! Spans recorded by the benchmark's own files around its calls into each
//! layer (choosing-metrics §4): kept in a `Vec`, written out as one JSON
//! file when the run ends. Nothing inside the simulator is instrumented.
//!
//! A span is `(layer, rep, parent, start, end)`. A hot loop that makes a
//! million calls into one layer does not push a million spans: it folds
//! them into one span per layer per rep whose `busy_ns` is the (sampled,
//! scaled) total and whose `count` is the number of calls — see
//! [`Recorder::fold`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Where a rep reports its layer boundaries. The untimed implementation
/// ([`NoTrace`]) compiles to the bare calls, so the untraced and the
/// traced rep are one function and cannot drift apart.
pub trait Tracer {
    /// Whether spans are being recorded. The traced rep replaces the one
    /// whole-engine call it can decompose (`BufferlessPps::run`) by the
    /// equivalent hand loop when this is set.
    const ON: bool;

    /// Run `f` as a child span of the current span.
    fn span<R>(&mut self, layer: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;

    /// Record `count` calls into `layer`, totalling `busy_ns`, as one child
    /// span of the current span.
    fn fold(&mut self, layer: &'static str, busy_ns: u64, count: u64);
}

/// Tracing off: the end-to-end numbers always come from this.
pub struct NoTrace;

impl Tracer for NoTrace {
    const ON: bool = false;

    #[inline(always)]
    fn span<R>(&mut self, _layer: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    #[inline(always)]
    fn fold(&mut self, _layer: &'static str, _busy_ns: u64, _count: u64) {}
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`<crate>.<call>`).
    pub layer: &'static str,
    /// Rep the span belongs to (spans of one rep share it).
    pub rep: u32,
    /// Index of the span that caused this one, `None` for a rep's root.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
    /// Time inside the layer: `end − start` for a plain span, the folded
    /// total for a hot-loop span.
    pub busy_ns: u64,
    /// Calls the span stands for (1 for a plain span).
    pub count: u64,
}

/// The in-memory span store of one traced run.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

/// Root span of every traced rep.
pub const ROOT: &str = "rep";

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty store; timestamps count from now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` as one traced rep (a [`ROOT`] span); returns its result and
    /// its wall time in seconds.
    pub fn rep<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let root = self.spans.len();
        let out = self.span(ROOT, f);
        let secs = self.spans[root].busy_ns as f64 / 1e9;
        self.rep += 1;
        (out, secs)
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer: total self time (a span's busy time minus what its child
    /// spans cover) and total call count, over every rep recorded.
    pub fn self_times(&self) -> BTreeMap<&'static str, (i64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.busy_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (i64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let e = out.entry(s.layer).or_default();
            e.0 += s.busy_ns as i64 - covered as i64;
            e.1 += s.count;
        }
        out
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"layer\": \"{}\", \"rep\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"count\": {}}}",
                s.layer, s.rep, s.start_ns, s.end_ns, s.busy_ns, s.count
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

impl Tracer for Recorder {
    const ON: bool = true;

    fn span<R>(&mut self, layer: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            rep: self.rep,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            count: 1,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        self.spans[idx].busy_ns = end_ns - start_ns;
        out
    }

    fn fold(&mut self, layer: &'static str, busy_ns: u64, count: u64) {
        let parent = self.stack.last().copied();
        let (start_ns, end_ns) = match parent {
            Some(p) => (self.spans[p].start_ns, self.now_ns()),
            None => (self.now_ns(), self.now_ns()),
        };
        self.spans.push(Span {
            layer,
            rep: self.rep,
            parent,
            start_ns,
            end_ns,
            busy_ns,
            count,
        });
    }
}
