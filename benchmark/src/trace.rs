//! Harness-side spans: recorded around each call into a layer's public
//! functions, kept in memory, written as one Chrome trace-event file per
//! workload when it ends. The program's own telemetry sink stays off;
//! joining its spans to these is a later issue.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `id` is unique per tracer; spans of one benchmark op
/// share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub tid: u32,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Default)]
struct Inner {
    next_id: u32,
    spans: Vec<Span>,
}

/// In-memory span sink shared by every client thread of one workload.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Per-name aggregate: a layer's self time is its spans' duration minus
/// the part their child spans cover.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotal {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a client thread panicked while recording a span")
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// its own children.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        tid: u32,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        let id = {
            let mut inner = self.lock();
            inner.next_id += 1;
            inner.next_id
        };
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let out = f(Some(id));
        let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.lock().spans.push(Span {
            name,
            id,
            parent,
            op,
            tid,
            start_us,
            end_us,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Count, total and self seconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let spans = self.spans();
        let mut child_us: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_default() += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_us - s.start_us;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur / 1e6;
            t.self_s += (dur - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0) / 1e6;
        }
        out
    }

    /// Writes the spans as Chrome trace-event JSON (open in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"dsbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.tid,
                s.start_us,
                s.end_us - s.start_us,
                s.id,
                parent,
                s.op
            );
            out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// `Tracer::scope` when a tracer is given, a plain call otherwise — the
/// untraced run and the untraced half of a traced run go through here.
pub fn spanned<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u32>,
    op: u64,
    tid: u32,
    f: impl FnOnce(Option<u32>) -> T,
) -> T {
    match tracer {
        Some(t) => t.scope(name, parent, op, tid, f),
        None => f(None),
    }
}
