//! Spans the benchmark records around its calls into the program, and the
//! order statistics every metric is reported with.
//!
//! Spans are kept in memory and written as JSONL when the run ends. A
//! span's self time is its duration minus the time its children cover;
//! children of one parent never overlap (the benchmark calls the program
//! from one thread), so that is a plain subtraction.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// A parent whose children leave more than this share of it uncovered is
/// flagged: the layer split does not add up to the parent's time.
const ADDS_UP_TOLERANCE: f64 = 0.05;

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

struct Span {
    job: u64,
    parent: SpanId,
    name: &'static str,
    engine: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log. Disabled, every call is a no-op.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans { on, t0: Instant::now(), spans: Vec::new() }
    }

    /// Open a span of `job` under `parent`.
    fn open(
        &mut self,
        job: u64,
        parent: SpanId,
        name: &'static str,
        engine: &'static str,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { job, parent, name, engine, start_ns, end_ns: start_ns });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Duration of a closed span in milliseconds (0 when tracing is off).
    fn ms(&self, id: SpanId) -> f64 {
        id.map_or(0.0, |i| (self.spans[i].end_ns - self.spans[i].start_ns) as f64 / 1e6)
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        child
    }

    /// Self time per span name, and the parents whose children do not
    /// add up to them.
    pub fn accounting(&self) -> Accounting {
        let child = self.child_ns();
        let mut acc = Accounting::default();
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child[i]);
            let row = acc.layers.entry(s.name).or_default();
            row.count += 1;
            row.self_ms += own as f64 / 1e6;
            row.total_ms += dur as f64 / 1e6;
            if has_child[i] {
                acc.parents += 1;
                if dur > 0 && own as f64 > ADDS_UP_TOLERANCE * dur as f64 {
                    acc.flagged += 1;
                    row.flagged += 1;
                }
            }
        }
        acc.spans = self.spans.len();
        acc
    }

    /// The span log as JSONL: `header` first, then one line per span.
    pub fn to_jsonl(&self, header: &str) -> String {
        let child = self.child_ns();
        let mut out = format!("{header}\n");
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"job\":{},\"parent\":{},\"name\":\"{}\",\"engine\":\"{}\",\
                 \"start_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3}}}",
                s.job,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.engine,
                s.start_ns as f64 / 1e3,
                dur as f64 / 1e3,
                dur.saturating_sub(child[i]) as f64 / 1e3,
            );
        }
        out
    }
}

/// The spans of one job (or serve batch): a root and its children. Every
/// call is a no-op when the scope was made without a span log.
pub struct Scope<'a> {
    spans: Option<&'a mut Spans>,
    label: &'static str,
    job: u64,
    root: SpanId,
}

impl<'a> Scope<'a> {
    pub fn new(spans: Option<&'a mut Spans>, label: &'static str) -> Scope<'a> {
        Scope { spans, label, job: 0, root: None }
    }

    /// Open the root span of `job`.
    pub fn begin(&mut self, job: u64, name: &'static str) {
        self.job = job;
        self.root = None;
        self.root = self.open(name);
    }

    /// Close the root span.
    pub fn end(&mut self) -> f64 {
        let root = self.root.take();
        self.close(root)
    }

    /// Open a child of the root.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let (job, root, label) = (self.job, self.root, self.label);
        self.spans.as_mut().and_then(|s| s.open(job, root, name, label))
    }

    /// Close a span and return its length in ms (0 when untraced).
    pub fn close(&mut self, id: SpanId) -> f64 {
        match self.spans.as_mut() {
            Some(s) => {
                s.close(id);
                s.ms(id)
            }
            None => 0.0,
        }
    }
}

#[derive(Default)]
pub struct LayerRow {
    pub count: usize,
    pub self_ms: f64,
    pub total_ms: f64,
    pub flagged: usize,
}

#[derive(Default)]
pub struct Accounting {
    pub layers: BTreeMap<&'static str, LayerRow>,
    pub spans: usize,
    pub parents: usize,
    pub flagged: usize,
}

impl Accounting {
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<12} {:>7} {:>12} {:>12} {:>8}\n",
            "span", "count", "self_ms", "total_ms", "flagged"
        );
        for (name, r) in &self.layers {
            let _ = writeln!(
                out,
                "{name:<12} {:>7} {:>12.3} {:>12.3} {:>8}",
                r.count, r.self_ms, r.total_ms, r.flagged
            );
        }
        let _ = writeln!(
            out,
            "# {} of {} parent spans flagged: children cover less than {:.0}% of them",
            self.flagged,
            self.parents,
            100.0 * (1.0 - ADDS_UP_TOLERANCE)
        );
        out
    }
}

/// Linear-interpolated percentile `p` (0–100) of `v`; 0 for no samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

/// The tail a sample set supports: the highest percentile with at least
/// ten samples beyond it (p99 from 1000 samples on), never below the
/// median. Returns the value and the percentile used.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len() as f64;
    let p = (100.0 * (1.0 - 10.0 / n)).clamp(50.0, 99.0);
    (percentile(v, p), p)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Mean of `v`; 0 for no samples. Per-layer times are means, so the
/// layers of a job add up to the job's mean time.
pub fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// `a / b`, or 0 when `b` is 0 — ratios of counts a workload may not have.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&many).1, 99.0);
        assert_eq!(tail(&many[..100]).1, 90.0);
        assert_eq!(tail(&v), (2.5, 50.0));
    }

    #[test]
    fn accounting_flags_uncovered_parents() {
        let mut s = Spans::new(true);
        let job = s.open(1, None, "job", "seq");
        let child = s.open(1, job, "parse", "seq");
        s.close(child);
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.close(job);
        let acc = s.accounting();
        assert_eq!((acc.spans, acc.parents, acc.flagged), (2, 1, 1));
        assert!(s.to_jsonl("{}").lines().count() == 3);
        let off = Spans::new(false);
        assert_eq!(off.ms(None), 0.0);
    }
}
