//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer's public
//! functions (the program itself is not instrumented). Each span carries a
//! name, start, end, parent and the request id of the operation it belongs
//! to; spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct SpanRec {
    pub request: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, request: u64, name: &'static str) -> usize {
        let now = self.now();
        self.spans.push(SpanRec {
            request,
            parent: self.open.last().copied(),
            name,
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, request: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(request, name);
        let out = f();
        self.close(id);
        out
    }

    /// Wall time of span `id` (closed spans only).
    pub fn duration(&self, id: usize) -> Duration {
        self.spans[id].end - self.spans[id].start
    }

    /// Record an already-measured interval ending at `end` as a child of the
    /// innermost open span (for walls a callee reports through an observer).
    pub fn record(&mut self, request: u64, name: &'static str, wall: Duration, end: Duration) {
        self.spans.push(SpanRec {
            request,
            parent: self.open.last().copied(),
            name,
            start: end.saturating_sub(wall),
            end,
        });
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach).min(s.end), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Summed self time per span name over the spans of the requests
    /// `keep` accepts.
    pub fn self_by_name(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            if keep(s.request) {
                *out.entry(s.name).or_insert(Duration::ZERO) += t;
            }
        }
        out
    }

    /// Write every span as one JSON line (times in microseconds from the
    /// recorder's epoch).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                r#"{{"id":{i},"parent":{},"request":{},"name":"{}","start_us":{:.3},"end_us":{:.3}}}"#,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut r = Recorder::new();
        let ms = Duration::from_millis;
        r.spans = vec![
            SpanRec {
                request: 1,
                parent: None,
                name: "op",
                start: ms(0),
                end: ms(10),
            },
            SpanRec {
                request: 1,
                parent: Some(0),
                name: "a",
                start: ms(1),
                end: ms(4),
            },
            SpanRec {
                request: 1,
                parent: Some(0),
                name: "b",
                start: ms(3),
                end: ms(6),
            },
            SpanRec {
                request: 1,
                parent: Some(2),
                name: "c",
                start: ms(3),
                end: ms(5),
            },
        ];
        assert_eq!(r.self_times(), vec![ms(5), ms(3), ms(1), ms(2)]);
        let by = r.self_by_name(|req| req == 1);
        assert_eq!(by["op"], ms(5));
        assert_eq!(by["c"], ms(2));
    }
}
