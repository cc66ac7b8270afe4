//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (nothing is traced inside the program).
//!
//! A span has a name, a start and an end relative to the run's origin,
//! an optional parent span, and the request id it belongs to; the same id
//! travels to the daemons as `Query::with_request_id`. Spans are kept in
//! memory and written out once, when the run ends.
//!
//! A daemon asked with `Query::with_trace` returns its own span tree; the
//! benchmark grafts it under the span of the call that received it
//! ([`Tracer::graft`]), so a served request's spans nest layer in layer
//! and a span minus its children is that layer's own time.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pexeso_core::trace::TraceSpan;

use crate::util::{median, Json};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub rid: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span recorder. A disabled tracer runs the closures and records
/// nothing, so untraced runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh request id (also usable as a span id namespace).
    pub fn mint(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so it can open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        rid: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.mint();
        let start = self.origin.elapsed().as_secs_f64() * 1e6;
        let out = f(id);
        let end = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            rid,
            name,
            start_us: start,
            end_us: end,
        });
        out
    }

    /// Record a daemon's span tree `root` as the subtree of the finished
    /// span `parent`. Only the daemon root's duration is known on this
    /// clock, so the root is centred in `parent`; every daemon span keeps
    /// its offset from the root. Names map to layers by [`daemon_span`].
    pub fn graft(&self, parent: u64, rid: u64, root: &TraceSpan) {
        if !self.enabled {
            return;
        }
        let mut spans = self.spans.lock().expect("span list poisoned");
        let Some(p) = spans.iter().rev().find(|s| s.id == parent) else {
            return;
        };
        let slack = (p.end_us - p.start_us - root.duration_us as f64).max(0.0);
        let base = p.start_us + slack / 2.0 - root.start_us as f64;
        let mut stack = vec![(root, parent)];
        while let Some((s, parent)) = stack.pop() {
            let id = self.mint();
            let start_us = base + s.start_us as f64;
            spans.push(Span {
                id,
                parent: Some(parent),
                rid,
                name: daemon_span(&s.name),
                start_us,
                end_us: start_us + s.duration_us as f64,
            });
            stack.extend(s.children.iter().map(|c| (c, id)));
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = Json::obj([
                ("id", Json::Int(s.id as i64)),
                ("parent", Json::Int(s.parent.map_or(0, |p| p as i64))),
                ("rid", Json::Int(s.rid as i64)),
                ("name", Json::str(s.name)),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start_us;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

/// The layer a span name belongs to: the module-named prefix before the
/// first dot, with the benchmark's own request roots under `load`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// The span name, with its layer, of a span in a daemon's own trace: the
/// router's root; a shard leg and the resilient client's attempts (the
/// `serve` client library); the daemon's execution root and its
/// partition merge (`partitions`); the index phases (`core`).
fn daemon_span(name: &str) -> &'static str {
    let kind = name.split('/').next().unwrap_or(name);
    match kind {
        "router" => "router.daemon",
        "shard" => "serve.shard",
        "client" | "attempt" | "backoff" => "serve.client",
        "query" => "partitions.daemon",
        "merge" => "partitions.merge",
        "partition" => "partitions.unit",
        "map" => "core.map",
        "block" => "core.block",
        "verify" => "core.verify",
        _ => "daemon.other",
    }
}

/// Self time (ms) per layer inside each span named `root`: the self
/// times of the span and its descendants, summed by layer, then the
/// median over the spans named `root`.
pub fn self_time_under_ms(spans: &[Span], root: &str) -> BTreeMap<String, f64> {
    let own: HashMap<u64, f64> = spans
        .iter()
        .map(|s| s.id)
        .zip(self_times_us(spans))
        .collect();
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in spans.iter().filter(|s| s.name == root) {
        let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
        let mut stack = vec![r];
        while let Some(s) = stack.pop() {
            *sums.entry(layer_of(s.name)).or_default() += own[&s.id] / 1e3;
            stack.extend(children.get(&s.id).into_iter().flatten());
        }
        for (layer, ms) in sums {
            by.entry(layer.to_string()).or_default().push(ms);
        }
    }
    by.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: f64, b: f64) -> Span {
        Span {
            id,
            parent,
            rid: 1,
            name,
            start_us: a,
            end_us: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "load.request", 0.0, 100.0),
            span(2, Some(1), "serve.exec", 10.0, 50.0),
            span(3, Some(1), "serve.codec", 40.0, 60.0),
            span(4, Some(2), "core.index", 20.0, 30.0),
        ];
        assert_eq!(self_times_us(&spans), vec![50.0, 30.0, 20.0, 10.0]);
        let under = self_time_under_ms(&spans, "serve.exec");
        assert_eq!(under["serve"], 0.03);
        assert_eq!(under["core"], 0.01);
        assert!(!under.contains_key("load"));
    }

    #[test]
    fn a_grafted_daemon_trace_nests_inside_the_call() {
        let t = Tracer::new(true, Instant::now());
        let id = t.span("serve.exec", 7, None, |id| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            id
        });
        let daemon = TraceSpan::new("query", 0, 1000)
            .child(TraceSpan::new("map", 0, 100))
            .child(TraceSpan::new("verify", 100, 600))
            .child(TraceSpan::new("merge", 700, 50));
        t.graft(id, 7, &daemon);
        let spans = t.spans();
        let call = &spans[0];
        let root = spans
            .iter()
            .find(|s| s.name == "partitions.daemon")
            .unwrap();
        assert_eq!(root.parent, Some(id));
        assert!(call.start_us <= root.start_us && root.end_us <= call.end_us);
        let under = self_time_under_ms(&spans, "serve.exec");
        assert!((under["core"] - 0.7).abs() < 1e-9);
        assert!((under["partitions"] - 0.3).abs() < 1e-9);
        let serve_ms = (call.end_us - call.start_us - 1000.0) / 1e3;
        assert!((under["serve"] - serve_ms).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("serve.exec", 1, None, |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
