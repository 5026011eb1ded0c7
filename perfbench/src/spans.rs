//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out once the run ends.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use congest_sim::trace::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder. A disabled recorder records nothing, so the timed
/// runs pay one branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool, run_id: u64) -> Spans {
        Spans {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("span exit without enter");
        self.spans[id].end_ns = now;
    }

    /// Records a span that began at `start` and ends now, for calls
    /// whose span name is known only once they return.
    pub fn record(&mut self, name: &'static str, start: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: self.now_ns(),
            parent: self.open.last().copied(),
        });
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations of every closed span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover (children run one after another, never overlap).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes one JSON line per span: name, start and end (ns since the
    /// run began), parent index and run id.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::Obj(vec![
                ("id".into(), Json::Int(id as i64)),
                ("name".into(), Json::Str(s.name.to_string())),
                ("start_ns".into(), Json::Int(s.start_ns as i64)),
                ("end_ns".into(), Json::Int(s.end_ns as i64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("run_id".into(), Json::Int(self.run_id as i64)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true, 1);
        spans.enter("outer");
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        spans.record("inner", t0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        spans.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        spans.exit();
        spans.exit();
        let own = spans.self_times();
        let outer = spans.durations("outer")[0];
        let inner: f64 = spans.durations("inner").iter().sum();
        assert!((own["outer"] + own["inner"] - outer).abs() < 1e-6);
        assert!((own["inner"] - inner).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false, 1);
        spans.enter("a");
        spans.record("b", Instant::now());
        spans.exit();
        assert!(spans.self_times().is_empty());
    }
}
