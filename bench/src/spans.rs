//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own code, around the calls it
//! makes into each layer: name, start, end, parent and the op they
//! belong to. They stay in memory until the run ends and are written
//! out as one JSONL file per workload. A layer's number is its *self
//! time*: the span's duration minus what its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op (timed exchange, or replay of one) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the recorder.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one thread, in start order, with the stack of open ones.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`; recorders of one
    /// run share it so their spans merge onto one clock.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the span open now.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Files a span the callee timed itself (an operator sample), as a
    /// child of the span open now.
    pub fn child(&mut self, name: &'static str, op: u64, started: Instant, wall: Duration) {
        let start_ns = self.ns(started);
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns + wall.as_nanos() as u64,
        });
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Summed self time and span count per span name, over the spans
    /// whose root ancestor is named `root`.
    pub fn self_time_under(&self, root: &str) -> BTreeMap<&'static str, (u64, u64)> {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut top = i;
            while let Some(p) = self.spans[top].parent {
                top = p;
            }
            if self.spans[top].name == root {
                let e = by_name.entry(s.name).or_default();
                e.0 += own[i];
                e.1 += 1;
            }
        }
        by_name
    }

    /// Durations of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// One JSON object per line: `name`, `op`, `id`, `parent`, start and
    /// end in nanoseconds since the run's epoch.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"id\": {id}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_follows_roots() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch);
        rec.span("root", 1, |r| {
            r.span("layer", 1, |r| {
                r.child("op", 1, epoch, Duration::from_nanos(0));
            });
        });
        rec.span("other", 2, |r| r.span("layer", 2, |_| {}));
        let mut second = Recorder::new(epoch);
        second.span("root", 3, |r| r.span("layer", 3, |_| {}));
        rec.absorb(second);

        // Pin durations so the arithmetic is exact.
        for (i, (s, e)) in [
            (0, 100),
            (10, 60),
            (20, 30),
            (0, 50),
            (5, 25),
            (0, 40),
            (10, 20),
        ]
        .into_iter()
        .enumerate()
        {
            rec.spans[i].start_ns = s;
            rec.spans[i].end_ns = e;
        }
        let under = rec.self_time_under("root");
        assert_eq!(under["root"], (50 + 30, 2));
        assert_eq!(under["layer"], (40 + 10, 2));
        assert_eq!(under["op"], (10, 1));
        assert_eq!(rec.durations("layer"), vec![50, 20, 10]);
    }
}
