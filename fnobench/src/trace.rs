//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (op → {lift, layer → {submit, bypass, finish,
//! add_gelu}, proj}, or queue → {lift, stage, submit_many, bypass,
//! wait_many, collect, add_gelu, proj}), kept in memory while the run
//! measures, and reduced to per-name self times at the end. They
//! can be written out as Chrome trace-event JSON, which Perfetto and
//! `chrome://tracing` open directly.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` and any span still open inside it (a unit that
    /// returned early on an error leaves its inner spans open).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                return;
            }
        }
        panic!("span {id} is not open");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the first `max_spans` spans as Chrome trace-event JSON
    /// (complete events, microsecond timestamps).
    pub fn write_chrome(&self, out: &mut impl Write, max_spans: usize) -> std::io::Result<()> {
        writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        let n = self.spans.len().min(max_spans);
        for (id, s) in self.spans[..n].iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if id + 1 < n { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )?;
        }
        writeln!(out, "]}}")
    }
}

/// Length of the part of `[start, end)` that `children` cover, counting
/// overlapping children once.
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Total self time in nanoseconds per span name. A span's self time is
/// its duration minus the part of it that its child spans cover.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let own = s.end_ns - s.start_ns - covered_ns(s.start_ns, s.end_ns, kids);
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Total time from the start of each `first` span to the end of the next
/// `last` span under the same parent: how long a spectral conv was in
/// flight (submit → finish), including the host work overlapped with it.
pub fn between_ns(spans: &[Span], first: &str, last: &str) -> u64 {
    let mut total = 0;
    for (i, s) in spans.iter().enumerate() {
        if s.name != first {
            continue;
        }
        if let Some(e) = spans[i + 1..]
            .iter()
            .find(|e| e.name == last && e.parent == s.parent)
        {
            total += e.end_ns - s.start_ns;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("op", None, 0, 100),
            span("lift", Some(0), 0, 10),
            span("layer", Some(0), 10, 90),
            span("submit", Some(2), 12, 20),
            span("finish", Some(2), 40, 85),
            span("proj", Some(0), 90, 100),
        ];
        let s = self_ns_by_name(&spans);
        assert_eq!(s["op"], 0);
        assert_eq!(s["lift"], 10);
        assert_eq!(s["layer"], 80 - 8 - 45);
        assert_eq!(s["submit"], 8);
        assert_eq!(s["finish"], 45);
        assert_eq!(s["proj"], 10);
    }

    /// Overlapping children count once; a child running past its parent
    /// counts only inside the parent.
    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("q", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            span("c", Some(0), 90, 130),
        ];
        let s = self_ns_by_name(&spans);
        assert_eq!(s["q"], 100 - 60 - 10);
    }

    #[test]
    fn same_name_self_times_add_up() {
        let spans = [
            span("op", None, 0, 30),
            span("layer", Some(0), 0, 10),
            span("layer", Some(0), 10, 25),
        ];
        let s = self_ns_by_name(&spans);
        assert_eq!(s["layer"], 25);
        assert_eq!(s["op"], 5);
    }

    #[test]
    fn between_spans_pairs_siblings() {
        let spans = [
            span("layer", None, 0, 50),
            span("submit", Some(0), 5, 10),
            span("bypass", Some(0), 10, 30),
            span("finish", Some(0), 30, 45),
            span("layer", None, 50, 100),
            span("submit", Some(4), 52, 60),
            span("finish", Some(4), 60, 90),
        ];
        assert_eq!(between_ns(&spans, "submit", "finish"), 40 + 38);
    }

    /// Ending an outer span closes inner spans an early return left open.
    #[test]
    fn end_closes_inner_open_spans() {
        let mut t = Tracer::new();
        let op = t.begin("op");
        t.begin("layer");
        t.begin("finish");
        t.end(op);
        let end = t.spans()[0].end_ns;
        assert!(t.spans().iter().all(|s| s.end_ns == end));
        let next = t.begin("op");
        assert_eq!(t.spans()[next].parent, None);
    }

    #[test]
    fn tracer_nests_and_exports_chrome_json() {
        let mut t = Tracer::new();
        let op = t.begin("op");
        let inner = t.begin("lift");
        t.end(inner);
        t.end(op);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut buf = Vec::new();
        t.write_chrome(&mut buf, 10).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.trim_end().ends_with("]}"));
    }
}
