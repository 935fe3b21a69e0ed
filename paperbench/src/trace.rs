//! Host-time spans the benchmark records around its own calls into the
//! simulator's public API. Spans stay in memory and are written out as
//! JSON when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is the layer call, `parent` indexes the
/// enclosing span, `run` numbers the repetition the call belongs to.
#[derive(Clone, Debug)]
pub struct HostSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl HostSpan {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. A disabled recorder records nothing, so untraced
/// repetitions pay no tracing cost.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    open: Vec<usize>,
    spans: Vec<HostSpan>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with repetition `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Times `f` as span `name`, nested under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Opens a span that encloses the spans recorded until
    /// [`Tracer::close`]; returns its handle.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(HostSpan {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in nesting order");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Seconds spent in spans called `name` during repetition `run`.
    pub fn total_secs(&self, run: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(HostSpan::secs)
            .sum()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.run
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("]}\n");
        s
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}
