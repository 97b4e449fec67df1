//! The harness's own span recorder (choosing-metrics §4): an in-memory
//! list of spans opened around each call into a layer's public
//! function. It deliberately does not use `callpath-obs` — the program
//! under test must not be able to change how it is measured.
//!
//! Span names are `layer.function`; an operation's root span is
//! `op.<kind>`. A span's self time is its duration minus the time its
//! children cover, so the self time left on `op.*` spans is exactly the
//! part of an operation no layer accounts for.

use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub parent: usize,
    /// Operation id shared by every span of one operation.
    pub op: u32,
}

impl Span {
    pub fn top_level(&self) -> bool {
        self.parent == NO_PARENT
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run so that spans recorded
    /// on different threads sit on one time axis.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span named `name`, child of the innermost open span. A
    /// span opened at top level starts a new operation. With tracing
    /// off nothing is recorded. Returns the span's index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return 0;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        if parent == NO_PARENT {
            self.op += 1;
        }
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if let Some(idx) = self.open.pop() {
            let end = self.epoch.elapsed().as_nanos() as u64;
            self.spans[idx].dur_ns = end - self.spans[idx].start_ns;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Record a replayed call as a child of the closed span `parent`:
    /// work that ran lazily inside `parent`, re-run standalone and timed
    /// at `dur_ns`. Replays are laid end to end from the parent's start
    /// and clipped to its duration, so self times never go negative.
    /// Returns the new span's index, for replays nested under it.
    pub fn attach(&mut self, parent: usize, name: &'static str, dur_ns: u64) -> usize {
        if !self.on {
            return 0;
        }
        let p = &self.spans[parent];
        // Children are always recorded after their parent.
        let used: u64 = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == parent)
            .map(|s| s.dur_ns)
            .sum();
        let span = Span {
            name,
            start_ns: p.start_ns + used.min(p.dur_ns),
            dur_ns: dur_ns.min(p.dur_ns.saturating_sub(used)),
            parent,
            op: p.op,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        let op_base = self.op;
        self.op += other.op;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s.op += op_base;
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent] = own[s.parent].saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// Durations, in ms, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Self times, in ms, of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Self time summed per layer (the part of the name before the
    /// dot). What is left on the top-level spans themselves is filed
    /// under `unexplained`.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let layer = if s.parent == NO_PARENT {
                "unexplained"
            } else {
                s.name.split('.').next().unwrap_or(s.name)
            };
            *by_layer.entry(layer).or_insert(0) += own;
        }
        by_layer
    }

    /// Total duration of the top-level spans.
    pub fn op_wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| s.dur_ns)
            .sum()
    }

    fn stack_of(&self, mut idx: usize) -> String {
        let mut names = vec![self.spans[idx].name];
        while self.spans[idx].parent != NO_PARENT {
            idx = self.spans[idx].parent;
            names.push(self.spans[idx].name);
        }
        names.reverse();
        names.join(";")
    }

    /// Folded stacks (`op.kind;layer.fn;... self_us` per line), the
    /// input format of flamegraph.pl and inferno.
    pub fn folded(&self) -> String {
        let mut by_stack: BTreeMap<String, u64> = BTreeMap::new();
        for (idx, own) in self.self_ns().into_iter().enumerate() {
            *by_stack.entry(self.stack_of(idx)).or_insert(0) += own;
        }
        by_stack
            .into_iter()
            .map(|(stack, ns)| format!("{stack} {}\n", ns / 1000))
            .collect()
    }

    /// Every span as one JSON array (`parent` is an index into the same
    /// array, -1 at the top level).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}{}\n",
                s.name,
                s.op,
                parent,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Time one call outside any span (used for replays).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_replays() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.begin("op.x");
        let render = tr.begin("viewer.render");
        std::thread::sleep(std::time::Duration::from_millis(4));
        tr.end();
        tr.end();
        tr.attach(render, "core.sort", 1_000_000);
        // A replay longer than what is left of the parent is clipped.
        tr.attach(render, "core.hot_path", u64::MAX);
        let own = tr.self_ns();
        assert_eq!(own[render], 0);
        assert_eq!(tr.spans()[2].dur_ns, 1_000_000);
        assert_eq!(
            tr.spans()[2].dur_ns + tr.spans()[3].dur_ns,
            tr.spans()[render].dur_ns
        );
        assert!(tr.folded().contains("op.x;viewer.render;core.sort 1000\n"));
        let layers = tr.self_by_layer();
        assert_eq!(layers["viewer"], 0);
        assert!(layers["unexplained"] < 1_000_000, "glue is small");
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        tr.begin("op.x");
        assert_eq!(tr.span("a.b", || 7), 7);
        tr.end();
        assert!(tr.spans().is_empty());
    }
}
