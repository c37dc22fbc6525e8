//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions (choosing-metrics §4): name, start,
//! end, the span that caused it, and the operation both belong to. They
//! stay in memory until the run ends and are then written as one JSON
//! object per line. A layer's *self time* is its span's duration minus
//! the part its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// `parent` of a span opened while no other span was open.
pub const NO_PARENT: u32 = u32::MAX;

/// Operation id of spans recorded while setting up (the first full freeze
/// and publish). They are written to the trace but left out of the layer
/// times, which describe the timed operations only.
pub const SETUP_OP: u64 = u64::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation id shared by every span of one request.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span log. Spans nest by open/close order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`, so logs of several
    /// threads share one clock.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn begin(&mut self, name: &'static str, op: u64) -> u32 {
        let at = self.now_ns();
        self.begin_at(name, op, at)
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        let at = self.now_ns();
        self.end_at(id, at);
    }

    fn begin_at(&mut self, name: &'static str, op: u64, at_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: at_ns,
            end_ns: at_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op,
        });
        self.open.push(id);
        id
    }

    fn end_at(&mut self, id: u32, at_ns: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id as usize].end_ns = at_ns;
    }

    /// Move the log out, leaving an empty tracer on the same clock.
    pub fn take(&mut self) -> Tracer {
        assert!(self.open.is_empty(), "a span is still open");
        Tracer {
            origin: self.origin,
            spans: std::mem::take(&mut self.spans),
            open: Vec::new(),
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per span name: the self time in nanoseconds of every span of a
    /// timed operation (set-up spans excluded), in order.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            if s.op != SETUP_OP {
                by_name.entry(s.name).or_default().push(own);
            }
        }
        by_name
    }

    /// Append the log as JSON lines; `thread` labels this tracer's rows.
    pub fn write_jsonl(&self, out: &mut impl Write, thread: &str) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        Ok(())
    }
}

/// Self-time totals and samples of one traced run, merged over tracers.
#[derive(Default)]
pub struct LayerTimes {
    by_name: BTreeMap<&'static str, Vec<u64>>,
}

impl LayerTimes {
    pub fn absorb(&mut self, tracer: &Tracer) {
        for (name, mut own) in tracer.self_by_name() {
            self.by_name.entry(name).or_default().append(&mut own);
        }
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, Vec::len)
    }

    /// Total self time of `name` in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e9)
    }

    /// Total self time of all spans with one of `names`, in seconds.
    pub fn total_of(&self, names: &[&str]) -> f64 {
        names.iter().map(|name| self.total_s(name)).sum()
    }

    /// Mean self time of one `name` span, in seconds (0 when none ran).
    pub fn mean_s(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_s(name) / n as f64,
        }
    }

    /// Median self time of one `name` span, in seconds (0 when none ran).
    pub fn median_s(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(v) if !v.is_empty() => {
                let ms: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e9).collect();
                crate::stats::median(&ms)
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin_at("batch", 7, 0);
        let wal = t.begin_at("wal", 7, 10);
        t.end_at(wal, 40);
        let publish = t.begin_at("publish", 7, 50);
        let clone = t.begin_at("props_clone", 7, 55);
        t.end_at(clone, 75);
        t.end_at(publish, 90);
        t.end_at(root, 100);

        assert_eq!(t.spans()[wal as usize].parent, root);
        assert_eq!(t.spans()[clone as usize].parent, publish);
        assert_eq!(t.spans()[root as usize].parent, NO_PARENT);
        // root 100 - (wal 30 + publish 40); publish 40 - clone 20.
        assert_eq!(t.self_times_ns(), vec![30, 30, 20, 20]);
        // Self times tile the root: nothing is counted twice or lost.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);

        let mut layers = LayerTimes::default();
        layers.absorb(&t);
        assert_eq!(layers.count("wal"), 1);
        assert_eq!(layers.total_s("publish"), 20e-9);
        assert_eq!(layers.total_s("never"), 0.0);
        assert_eq!(layers.median_s("never"), 0.0);
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_parent_and_op() {
        let mut t = Tracer::new(Instant::now());
        let a = t.begin_at("batch", 3, 1);
        let b = t.begin_at("apply", 3, 2);
        t.end_at(b, 5);
        t.end_at(a, 9);
        let mut out = Vec::new();
        t.write_jsonl(&mut out, "main").unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"batch\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"op\":3"));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new(Instant::now());
        let a = t.begin("a", 0);
        let _b = t.begin("b", 0);
        t.end(a);
    }
}
