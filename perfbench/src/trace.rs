//! Spans recorded from outside the program: the benchmark wraps each call
//! into a layer's public function in a span (name, start, end, parent
//! span, request id). Spans stay in memory and are written out when the
//! run ends; a layer's self time is its spans' durations minus the part
//! their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `codec.decode_item_opts`.
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder. A disabled tracer records nothing and costs one
/// branch per call, so untraced runs share the traced code path.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span; `f` receives the span's id so nested calls
    /// can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let start = self.origin.elapsed().as_secs_f64();
        let id = {
            let mut spans = self.spans.lock().expect("tracer lock poisoned");
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
                request,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("tracer lock poisoned")[id].end = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_s\tend_s\tparent\trequest")?;
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{i}\t{}\t{:.9}\t{:.9}\t{parent}\t{}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.secs() - covered).max(0.0)
        })
        .collect()
}

/// Per-layer totals: (spans, summed self seconds), keyed by layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64)> {
    let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.layer()).or_default();
        e.0 += 1;
        e.1 += t;
    }
    out
}

/// Durations (seconds) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("runtime.produce", 0.0, 10.0, None),
            span("codec.decode", 1.0, 4.0, Some(0)),
            // Overlaps the first child: only [4, 5] is new coverage.
            span("codec.decode", 3.0, 5.0, Some(0)),
            span("imgproc.preproc", 6.0, 7.0, Some(0)),
            // Runs past its parent's end: clipped at 10.
            span("imgproc.preproc", 9.0, 12.0, Some(0)),
            // A grandchild counts against its own parent only.
            span("codec.entropy", 1.5, 2.0, Some(1)),
        ];
        let t = self_times(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(t[0], 10.0 - (4.0 + 1.0 + 1.0)));
        assert!(close(t[1], 3.0 - 0.5));
        assert!(close(t[2], 2.0));
        assert!(close(t[4], 3.0));
        let layers = layer_self_times(&spans);
        assert_eq!(layers["codec"].0, 3);
        assert!(close(layers["codec"].1, 2.5 + 2.0 + 0.5));
        assert!(close(layers["imgproc"].1, 4.0));
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let tracer = Tracer::new(true);
        let inner = tracer.span("runtime.produce", None, 7, |id| {
            tracer.span("codec.decode", id, 7, |child| child)
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(inner, Some(1));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(durations(&spans, "codec.decode").len(), 1);

        let off = Tracer::new(false);
        assert_eq!(off.span("codec.decode", None, 0, |id| id), None);
        assert!(off.spans().is_empty());
    }
}
