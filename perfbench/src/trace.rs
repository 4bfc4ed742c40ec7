//! Spans recorded from the benchmark's own code, around each call into a
//! layer. Spans stay in memory during the run and are written out once at
//! the end; the self-time table is computed from them.
//!
//! A span's self time is its duration minus the time its children cover.
//! Children of one parent never overlap in time, except the per-capability
//! spans of a pass, which run on several workers at once: those are marked
//! `concurrent`, reported as busy time, and not subtracted from their parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Tick, batch, pass or request number the span belongs to.
    pub id: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub concurrent: bool,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// The layer a span's self time is charged to.
fn layer_of(name: &str) -> &'static str {
    match name {
        "step" => "sim",
        "bus.publish" => "bus",
        "store.insert" => "store",
        "fence" | "cluster.ingest" | "direct.cluster" | "direct.versions" => "cluster",
        "flush" | "reopen" => "storage",
        "pass" => "runtime",
        "pipeline" => "pipeline",
        "round_trip" => "serve",
        "direct.engine" => "query",
        "idle" => "generator idle",
        _ => "benchmark loop",
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
            concurrent: false,
        });
        self.open.push((self.spans.len() - 1) as u32);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        if let Some(idx) = self.open.pop() {
            self.spans[idx as usize].end_ns = end;
        }
    }

    /// Adds a finished child of the innermost open span whose duration was
    /// measured elsewhere (the program's own histograms, or a pass's
    /// per-capability spans). It is placed at its parent's start.
    pub fn child(&mut self, name: &'static str, id: u64, dur_ns: u64, concurrent: bool) {
        if let Some(&parent) = self.open.last() {
            self.child_of(parent, name, id, dur_ns, concurrent);
        }
    }

    /// Index of the most recently added span, so a synthesized child can be
    /// nested under it (see [`Self::child_of`]).
    pub fn last(&self) -> u32 {
        (self.spans.len() - 1) as u32
    }

    /// Adds a finished child of span `parent` (see [`Self::child`]).
    pub fn child_of(
        &mut self,
        parent: u32,
        name: &'static str,
        id: u64,
        dur_ns: u64,
        concurrent: bool,
    ) {
        let start_ns = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns + dur_ns,
            concurrent,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time per layer, and the part of `wall_ns` no top-level span
    /// covers. Concurrent spans are summed separately as busy time.
    pub fn self_times(&self, wall_ns: u64) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT && !s.concurrent {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut busy: BTreeMap<String, u64> = BTreeMap::new();
        let mut top = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            if s.concurrent {
                *busy.entry(s.name.to_string()).or_default() += dur;
                continue;
            }
            if s.parent == NO_PARENT {
                top += dur;
            }
            *layers.entry(layer_of(s.name)).or_default() += dur.saturating_sub(child_ns[i]);
        }
        SelfTimes {
            wall_ns,
            layers,
            busy,
            residual_ns: wall_ns.saturating_sub(top),
        }
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# index\tparent\tname\tid\tstart_ns\tend_ns\tconcurrent"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.start_ns, s.end_ns, s.concurrent
            )?;
        }
        out.flush()
    }
}

pub struct SelfTimes {
    pub wall_ns: u64,
    pub layers: BTreeMap<&'static str, u64>,
    pub busy: BTreeMap<String, u64>,
    pub residual_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_sequential_children_only() {
        let mut t = Tracer::default();
        t.enter("pass", 0);
        t.child("pipeline", 0, 0, false);
        t.child("cell", 0, 1_000_000_000, true);
        t.exit();
        let st = t.self_times(u64::MAX);
        assert_eq!(st.busy.get("cell"), Some(&1_000_000_000));
        let runtime = st.layers["runtime"];
        let pass = t.spans[0].end_ns - t.spans[0].start_ns;
        assert_eq!(runtime, pass, "a concurrent child is not subtracted");
    }
}
