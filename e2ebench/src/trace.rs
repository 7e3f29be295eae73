//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each layer (never inside the program). Each span has a name, start and
//! end, an optional parent and an optional round id. At the end of the
//! run the spans are written as JSONL, followed by one summary line with
//! every span name's self time: its duration minus the part its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<SpanId>,
    round: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: Option<SpanId>, round: Option<usize>) -> SpanId {
        let mut spans = self.spans.lock().expect("tracer lock never poisoned");
        spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent,
            round,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        self.spans.lock().expect("tracer lock never poisoned")[id].end = Some(Instant::now());
    }

    /// Self time in ms per span name, summed over the run.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("tracer lock never poisoned");
        let dur = |s: &Span| {
            s.end
                .map_or(0.0, |end| end.duration_since(s.start).as_secs_f64() * 1e3)
        };
        let mut child_ms = vec![0.0; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ms[parent] += dur(span);
            }
        }
        let mut out = BTreeMap::new();
        for (id, span) in spans.iter().enumerate() {
            *out.entry(span.name).or_insert(0.0) += dur(span) - child_ms[id];
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        {
            let spans = self.spans.lock().expect("tracer lock never poisoned");
            let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
            for (id, span) in spans.iter().enumerate() {
                let end = span
                    .end
                    .map_or("null".to_string(), |e| format!("{:.3}", us(e)));
                let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
                let round = span.round.map_or("null".to_string(), |r| r.to_string());
                writeln!(
                    out,
                    "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{end},\"parent\":{parent},\"round\":{round}}}",
                    span.name,
                    us(span.start),
                )?;
            }
        }
        let summary: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, ms)| format!("\"{name}\":{ms:.6}"))
            .collect();
        writeln!(out, "{{\"self_ms\":{{{}}}}}", summary.join(","))?;
        out.flush()
    }
}

/// Runs `f` inside a span when tracing, and returns its result with its
/// wall time in ms.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    round: Option<usize>,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> (T, f64) {
    let id = tracer.map(|t| t.open(name, parent, round));
    let start = Instant::now();
    let value = f(id);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if let (Some(t), Some(id)) = (tracer, id) {
        t.close(id);
    }
    (value, ms)
}
