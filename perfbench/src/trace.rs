//! In-memory span recording for the traced run.
//!
//! A span is opened around each call the benchmark makes into one layer of
//! the workspace and closed when the call returns. Spans carry a name whose
//! prefix before the first `.` is the layer (`engine`, `prepare.dfree-a`,
//! `encode.record`, ...), a start and end in nanoseconds since the tracer's
//! epoch, the index of the enclosing span, and the id of the job that caused
//! it. Nothing is written while the benchmark runs; spans are dumped as JSON
//! lines at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-prefixed name.
    pub name: String,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// A span recorder. A disabled tracer records nothing and costs one branch
/// per call, so the untraced and traced pipelines share their code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
}

/// Handle of an open span; `usize::MAX` when the tracer is disabled.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(usize);

impl Tracer {
    /// A tracer measuring against `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sets the job id stamped on subsequently opened spans.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes `span` together with any span still open inside it (a call
    /// that returned early through `?`).
    pub fn close(&mut self, span: Open) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == span.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Number of spans recorded so far (a pass boundary marker).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this tracer, re-basing parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + base);
            self.spans.push(span);
        }
    }
}

/// Self time (ns) of every span in `spans[from..]`: its duration minus the
/// time covered by its direct children. Children of one parent never
/// overlap (they are closed innermost-first on one thread).
pub fn self_times(spans: &[Span], from: usize) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in &spans[from..] {
        if let Some(p) = span.parent {
            child_ns[p] += span.duration_ns();
        }
    }
    (from..spans.len())
        .map(|i| spans[i].duration_ns().saturating_sub(child_ns[i]))
        .collect()
}

/// Self time in milliseconds per span name, over `spans[from..]`.
pub fn self_ms_by_name(spans: &[Span], from: usize) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (span, ns) in spans[from..].iter().zip(self_times(spans, from)) {
        *out.entry(span.name.clone()).or_default() += ns as f64 / 1e6;
    }
    out
}

/// Self time in milliseconds per layer (`job` = unattributed), over
/// `spans[from..]`.
pub fn self_ms_by_layer(spans: &[Span], from: usize) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (name, ms) in self_ms_by_name(spans, from) {
        let layer = name.split('.').next().unwrap_or(&name).to_string();
        *out.entry(layer).or_default() += ms;
    }
    out
}

/// Checks that every closed span lies inside its parent's interval.
///
/// # Errors
///
/// Describes the first span that is open or escapes its parent.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns == u64::MAX || span.end_ns < span.start_ns {
            return Err(format!("span {i} `{}` is not closed", span.name));
        }
        if let Some(p) = span.parent {
            let parent = &spans[p];
            if p >= i {
                // Parents are always opened before their children.
                return Err(format!("span {i} `{}` precedes its parent {p}", span.name));
            }
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} `{}` [{}, {}] escapes parent {p} `{}` [{}, {}]",
                    span.name,
                    span.start_ns,
                    span.end_ns,
                    parent.name,
                    parent.start_ns,
                    parent.end_ns
                ));
            }
        }
    }
    Ok(())
}

/// Renders the spans as JSON lines: `{"i","name","start_ns","end_ns","parent","job"}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
            s.name, s.start_ns, s.end_ns, s.job
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "job".into(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
                job: 1,
            },
            Span {
                name: "engine".into(),
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
                job: 1,
            },
            Span {
                name: "verify.linial".into(),
                start_ns: 60,
                end_ns: 90,
                parent: Some(0),
                job: 1,
            },
        ];
        assert_eq!(self_times(&spans, 0), vec![20, 50, 30]);
        let layers = self_ms_by_layer(&spans, 0);
        assert!((layers["verify"] - 30e-6).abs() < 1e-12);
        check_nesting(&spans).unwrap();
    }

    #[test]
    fn escaping_child_is_reported() {
        let spans = vec![
            Span {
                name: "job".into(),
                start_ns: 0,
                end_ns: 10,
                parent: None,
                job: 1,
            },
            Span {
                name: "engine".into(),
                start_ns: 5,
                end_ns: 11,
                parent: Some(0),
                job: 1,
            },
        ];
        assert!(check_nesting(&spans).is_err());
    }
}
