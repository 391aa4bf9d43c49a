//! Benchmark-side spans: one around each call the benchmark makes into
//! the program, kept in memory and written out when the run ends.
//!
//! The benchmark drives the program from one thread, so a span stack in
//! a `RefCell` is enough. A disabled tracer records nothing; its `span`
//! is a branch around the closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request (0 outside one).
    pub request: u64,
}

/// Time one span name accounts for, summed over its occurrences.
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by direct child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    next_request: Cell<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: Cell::new(false),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_request: Cell::new(1),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Runs `f` inside a span that belongs to the enclosing request.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, false, f)
    }

    /// Runs `f` inside a span that starts a new request id: one frame,
    /// one `TICK`, or one solve.
    pub fn request<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, true, f)
    }

    fn record<T>(&self, name: &'static str, new_request: bool, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let request = if new_request {
            let id = self.next_request.get();
            self.next_request.set(id + 1);
            id
        } else {
            parent.map_or(0, |p| self.spans.borrow()[p].request)
        };
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in spans.iter().zip(&child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = table.entry(span.name).or_insert_with(|| {
                order.push(span.name);
                SelfTime {
                    name: span.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                }
            });
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(*children);
        }
        order
            .into_iter()
            .filter_map(|name| table.remove(name))
            .collect()
    }

    /// Mean duration of the spans named `name`, in milliseconds.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let (count, total) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| {
                (n + 1, t + (s.end_ns - s.start_ns))
            });
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64 / 1e6
        }
    }

    /// The spans as a JSON array, one object per line.
    pub fn dump_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("[\n");
        for (i, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            );
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out.push('\n');
        out
    }
}
