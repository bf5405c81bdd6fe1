//! Benchmark-side tracing: spans recorded around calls into the
//! program's public functions, kept in memory and written out at the end.
//!
//! A span has a name, a layer, start and end, the span that caused it,
//! and a group id shared by the spans of one trial, cell or request.
//! Where the program already measures time inside a call the benchmark
//! cannot split from outside (the executor's trial spans, its idle
//! histogram), that time is attached to the enclosing span as an
//! *attribution*: layer plus seconds, no start or end.
//!
//! A layer's self time is the duration of its spans minus the part their
//! child spans and attributions cover. A *window* span marks the traced
//! unit of work (a cycle, a campaign pass, a load phase) run on
//! `workers` threads; it has no self time of its own, and
//! `1 - (self times + idle) / (workers * window)` is the share of the
//! window's capacity no layer accounts for.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Layer that collects idle time reported by the executor.
pub const IDLE: &str = "idle";

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub group: u64,
    /// Window spans carry their worker count; they have no self time.
    pub window_workers: Option<usize>,
}

pub struct Attribution {
    pub parent: usize,
    pub layer: &'static str,
    pub secs: f64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    pub attributions: Vec<Attribution>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
            attributions: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span nested under the innermost open one.
    pub fn open(&mut self, name: &'static str, layer: &'static str, group: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            group,
            window_workers: None,
        });
        self.stack.push(id);
        id
    }

    /// Open a window span run on `workers` threads.
    pub fn open_window(
        &mut self,
        name: &'static str,
        layer: &'static str,
        workers: usize,
    ) -> usize {
        let id = self.open(name, layer, 0);
        self.spans[id].window_workers = Some(workers);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a span measured elsewhere (another thread's request) with
    /// explicit times on this tracer's clock.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        group: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.stack.last().copied(),
            group,
            window_workers: None,
        });
    }

    /// Attach program-measured time of `layer` to span `parent`.
    pub fn attribute(&mut self, parent: usize, layer: &'static str, secs: f64) {
        if secs > 0.0 {
            self.attributions.push(Attribution {
                parent,
                layer,
                secs,
            });
        }
    }

    pub fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9
    }

    fn in_subtree(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Self time per layer inside `root` (a window span), with the
    /// executor's idle time under [`IDLE`].
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                covered[p] += self.secs(id);
            }
        }
        for a in &self.attributions {
            covered[a.parent] += a.secs;
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            if !self.in_subtree(id, root) || s.window_workers.is_some() {
                continue;
            }
            *out.entry(s.layer).or_default() += (self.secs(id) - covered[id]).max(0.0);
        }
        for a in &self.attributions {
            if self.in_subtree(a.parent, root) {
                *out.entry(a.layer).or_default() += a.secs;
            }
        }
        out
    }

    /// The window's capacity, the part the layers explain, idle time,
    /// and the unexplained share of capacity.
    pub fn coverage(&self, root: usize) -> Coverage {
        let workers = self.spans[root].window_workers.expect("root is a window");
        let capacity = workers as f64 * self.secs(root);
        let times = self.self_times(root);
        let idle = times.get(IDLE).copied().unwrap_or(0.0);
        let explained: f64 = times
            .iter()
            .filter(|(l, _)| **l != IDLE)
            .map(|(_, s)| s)
            .sum();
        Coverage {
            capacity,
            explained,
            idle,
            unexplained_ratio: 1.0 - (explained + idle) / capacity,
            self_times: times,
        }
    }

    /// Write every span and attribution as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"group\":{}{}}}",
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.group,
                s.window_workers
                    .map_or(String::new(), |w| format!(",\"window_workers\":{w}")),
            )?;
        }
        for a in &self.attributions {
            writeln!(
                out,
                "{{\"attributed_to\":{},\"layer\":\"{}\",\"secs\":{}}}",
                a.parent, a.layer, a.secs
            )?;
        }
        out.flush()
    }
}

pub struct Coverage {
    pub capacity: f64,
    pub explained: f64,
    pub idle: f64,
    pub unexplained_ratio: f64,
    pub self_times: BTreeMap<&'static str, f64>,
}

impl Coverage {
    /// Report the window's coverage and per-layer self times.
    pub fn report(&self, m: &mut crate::Metrics, spans: usize, wall: f64) {
        for layer in [
            "sim", "cc", "apps", "runner", "cache", "store", "serve", "campaign",
        ] {
            let name = format!("{layer}.self_s");
            m.set(
                &name,
                self.self_times.get(layer).copied().unwrap_or(0.0),
                "s",
            );
        }
        m.set("obs.unexplained_ratio", self.unexplained_ratio, "ratio");
        m.set("obs.spans", spans as f64, "count");
        m.set("obs.trace_wall_s", wall, "s");
        m.set("obs.capacity_s", self.capacity, "s");
        m.set("obs.explained_s", self.explained, "s");
        m.set("obs.idle_s", self.idle, "s");
    }
}

/// Where a traced run writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(".bench_out").join(format!("trace-{workload}-seed{seed}.jsonl"))
}
