//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into each
//! layer's public functions.  Each span has a name, a start and end (seconds
//! since the run's origin), its parent span, and a group id shared by the spans
//! of one request (or epoch, or app).  Recording is off in the gated runs:
//! `open` then returns `None` without reading the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::report::{ratio, Metrics};

/// One recorded interval.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    group: u64,
    start: f64,
    end: f64,
}

/// A handle to an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// Per-thread span store; threads' stores are merged with [`Recorder::absorb`].
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool, origin: Instant) -> Self {
        Recorder {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's origin and switch.
    pub fn fork(&self) -> Self {
        Recorder::new(self.on, self.origin)
    }

    /// Opens a span (a no-op returning `None` when recording is off).
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            group,
            start: now,
            end: now,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name totals and the share of root wall time no child span covers.
    pub fn summary(&self, roots: &[&str]) -> Summary {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        let (mut root_wall, mut root_uncovered) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let covered = covered(s, children[i].iter().map(|&c| &self.spans[c]));
            let layer = layers.entry(s.name).or_default();
            layer.count += 1;
            layer.total_s += dur;
            layer.self_s += (dur - covered).max(0.0);
            if s.parent.is_none() && roots.contains(&s.name) {
                root_wall += dur;
                root_uncovered += (dur - covered).max(0.0);
            }
        }
        Summary {
            layers,
            unaccounted_frac: ratio(root_uncovered, root_wall),
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"group\": {}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}}}",
                s.group, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of the children's intervals, clipped to the parent.
fn covered<'a>(parent: &Span, kids: impl Iterator<Item = &'a Span>) -> f64 {
    let mut iv: Vec<(f64, f64)> = kids
        .map(|k| (k.start.max(parent.start), k.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Count, total and self time of every span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// What the spans of one traced run add up to.
pub struct Summary {
    pub layers: BTreeMap<&'static str, LayerTime>,
    pub unaccounted_frac: f64,
}

impl Summary {
    /// Prints the per-name self-time table.
    pub fn print(&self) {
        println!("# span self time (name: count, total s, self s)");
        for (name, l) in &self.layers {
            println!(
                "#   {name:<24} {:>8} {:>12.6} {:>12.6}",
                l.count, l.total_s, l.self_s
            );
        }
    }

    /// The per-name table as a JSON object (for the trace file).
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .layers
            .iter()
            .map(|(name, l)| {
                format!(
                    "\"{name}\": {{\"count\": {}, \"total_s\": {:.9}, \"self_s\": {:.9}}}",
                    l.count, l.total_s, l.self_s
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Adds `trace.unaccounted_frac`.
    pub fn record(&self, m: &mut Metrics) {
        m.time("trace.unaccounted_frac", self.unaccounted_frac, "ratio");
    }
}
