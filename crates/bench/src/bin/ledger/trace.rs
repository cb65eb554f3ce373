//! The ledger's own spans, recorded from outside the program around the
//! public calls into each layer. Spans stay in memory and are written
//! out once, when the run ends; a layer's self time is its span minus
//! the part of that interval its child spans cover.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// One timed interval: which layer boundary, when, caused by which span,
/// and for which batch or request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Batch or request number the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. A disabled tracer records nothing, so the
/// same loop runs untraced for the end-to-end numbers.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { epoch: Instant::now(), enabled, spans: Vec::new() }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns `None` when
    /// tracing is off.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, id: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Closes a span opened by [`Tracer::begin`] and returns its duration.
    pub fn end(&mut self, span: Option<SpanId>) -> u64 {
        let Some(span) = span else { return 0 };
        let now = self.now_ns();
        let s = &mut self.spans[span as usize];
        s.end_ns = now;
        s.duration_ns()
    }

    /// Books a span measured elsewhere (times in ns since this tracer's
    /// epoch), e.g. a request's due → reply-seen interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.enabled {
            self.spans.push(Span { name, start_ns, end_ns, parent, id });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
    }

    /// Duration in seconds of the latest span called `name` (0 if none).
    pub fn last_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span, with its self time, as one JSON document. Span
    /// names are plain identifiers, so they need no escaping.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        write!(
            out,
            r#"{{"schema":"microrec-ledger-trace-v1","workload":"{workload}","seed":{seed},"spans":["#
        )?;
        let self_ns = self_times_ns(&self.spans);
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                r#"{sep}{{"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"id":{},"self_ns":{own}}}"#,
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.write_all(b"]}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals clipped to its own interval, so overlapping
/// children are not subtracted twice and a child that outlives its parent
/// cannot drive the result negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use microrec_json::Json;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, id: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = vec![
            span("batch", 0, 100, None),
            span("gather", 10, 40, Some(0)),
            span("rows", 15, 25, Some(1)),
            span("fc", 40, 90, Some(0)),
        ];
        // batch: 100 - (30 + 50); gather: 30 - 10; grandchildren only
        // count against their own parent.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 50]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 180, Some(0)), // overlaps a by 10
            span("c", 190, 250, Some(0)), // outlives the parent by 50
            span("d", 50, 90, Some(0)),   // entirely before the parent
            span("e", 120, 130, Some(0)), // inside a
        ];
        // Covered: [110,180) = 70 and [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", None, 1);
        assert_eq!(s, None);
        assert_eq!(t.end(s), 0);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let parent = t.begin("p", None, 3);
        let child = t.begin("c", parent, 3);
        t.end(child);
        t.end(parent);
        assert_eq!(t.count("p"), 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.total_ns("p") >= t.total_ns("c"));
        assert_eq!(t.last_s("p"), t.total_ns("p") as f64 / 1e9);
        assert_eq!(t.last_s("absent"), 0.0);
    }

    #[test]
    fn trace_file_round_trips_through_microrec_json() {
        let mut t = Tracer::new(true);
        let root = t.begin("batch", None, 9);
        let child = t.begin("gather", root, 9);
        t.end(child);
        t.end(root);
        let path =
            std::env::temp_dir().join(format!("ledger-trace-test-{}.json", std::process::id()));
        t.write_json(&path, "tiny", 5).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("tiny"));
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(spans[1].get("id").and_then(Json::as_u64), Some(9));
    }
}
