//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is one timed call (name, start, end, and the span it ran
//! under). Calls too fine-grained for a span each — one store append,
//! one BN query — are kept as samples, and their summed time enters the
//! enclosing span as one aggregate child, so that a span's self time
//! (its duration minus what its children cover) never counts them.
//! Nothing is written until [`Tracer::write`] at the end of the run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    rep: u32,
    name: &'static str,
    parent: Option<usize>,
    /// Seconds since the tracer's origin.
    start: f64,
    end: f64,
    /// An aggregate of sampled calls, not one call.
    aggregate: bool,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The span and sample recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: Vec<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
            counts: vec![BTreeMap::new()],
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Starts the next repetition: later spans and counts belong to it.
    pub fn next_rep(&mut self) {
        assert!(self.open.is_empty(), "a repetition ends with every span closed");
        self.rep += 1;
        self.counts.push(BTreeMap::new());
    }

    /// Number of repetitions recorded so far (the current one included).
    pub fn reps(&self) -> usize {
        self.counts.len()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { rep: self.rep, name, parent, start, end: start, aggregate: false });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Records sampled calls of `name` that ran inside the open span:
    /// each duration (seconds) becomes a sample, and their sum one
    /// aggregate child span.
    pub fn calls(&mut self, name: &'static str, durations: &[f64]) {
        let total: f64 = durations.iter().sum();
        let parent = self.open.last().copied();
        let start = parent.map_or(0.0, |p| self.spans[p].start);
        self.spans.push(Span {
            rep: self.rep,
            name,
            parent,
            start,
            end: start + total,
            aggregate: true,
        });
        self.samples(name, durations);
    }

    /// Records samples of `name` without attributing their time to a
    /// span (calls timed off the campaign's path).
    pub fn samples(&mut self, name: &'static str, values: &[f64]) {
        self.samples.entry(name).or_default().extend_from_slice(values);
    }

    /// Adds `n` to a count of the current repetition.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts[self.rep as usize].entry(name).or_default() += n;
    }

    /// Sets a count of the current repetition.
    pub fn set_count(&mut self, name: &'static str, n: u64) {
        self.counts[self.rep as usize].insert(name, n);
    }

    /// The counts of repetition `rep`.
    pub fn counts(&self, rep: usize) -> &BTreeMap<&'static str, u64> {
        &self.counts[rep]
    }

    /// Every sample of `name`: the explicit samples plus the duration of
    /// every (non-aggregate) span of that name, in seconds.
    pub fn sampled(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && !s.aggregate)
            .map(Span::duration)
            .collect();
        if let Some(values) = self.samples.get(name) {
            out.extend_from_slice(values);
        }
        out
    }

    /// Self time of every span name in repetition `rep` inside the spans
    /// named `root` (those included), in seconds.
    pub fn self_times(&self, rep: usize, root: &str) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0; self.spans.len()];
        let mut inside = vec![false; self.spans.len()];
        for (index, span) in self.spans.iter().enumerate() {
            // Parents precede their children, so `inside` is final here.
            inside[index] = span.name == root || span.parent.is_some_and(|p| inside[p]);
            if let Some(parent) = span.parent {
                covered[parent] += span.duration();
            }
        }
        let mut out = BTreeMap::new();
        for ((span, covered), inside) in self.spans.iter().zip(covered).zip(inside) {
            if span.rep as usize == rep && inside {
                *out.entry(span.name).or_insert(0.0) += span.duration() - covered;
            }
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"rep\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_us\":{:.1},\"end_us\":{:.1},\"aggregate\":{}}}",
                span.rep,
                span.name,
                span.start * 1e6,
                span.end * 1e6,
                span.aggregate
            )?;
        }
        out.flush()
    }
}
