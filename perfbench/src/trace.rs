//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span carries a name (`layer.operation`), start and end
//! (ns since process start), the span that caused it, and a request id —
//! `(dpid << 32) | xid` for an update, the rule id for a probe. Recording
//! is off unless [`enable`] was called, so the untraced runs pay one
//! relaxed load per call site.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (process-wide).
    pub id: u64,
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since process start.
    pub start: u64,
    /// End, ns since process start.
    pub end: u64,
    /// Causing span (0 = root).
    pub parent: u64,
    /// Request id.
    pub req: u64,
}

impl Span {
    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Process clock origin.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since [`origin`].
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`, nested under the innermost open
/// span of this thread.
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let p = s.last().copied().unwrap_or(0);
        s.push(id);
        p
    });
    let start = now_ns();
    let out = f();
    let end = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.with(|s| {
        s.borrow_mut().push(Span {
            id,
            name,
            start,
            end,
            parent,
            req,
        })
    });
    out
}

/// Records an already-measured span (timestamps from [`now_ns`]). Returns
/// its id so children can name it as parent.
pub fn record(name: &'static str, req: u64, start: u64, end: u64, parent: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    SPANS.with(|s| {
        s.borrow_mut().push(Span {
            id,
            name,
            start,
            end,
            parent,
            req,
        })
    });
    id
}

/// Removes and returns the spans recorded on this thread.
pub fn take_thread() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Adds spans recorded on another thread to this thread's record.
pub fn absorb(spans: Vec<Span>) {
    SPANS.with(|s| s.borrow_mut().extend(spans));
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start);
            match children.get_mut(&s.id) {
                Some(c) => dur - covered(s.start, s.end, c),
                None => dur,
            }
        })
        .collect()
}

/// Per-layer totals: (self time ns, span count).
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, st) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.layer()).or_default();
        e.0 += st;
        e.1 += 1;
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.id, s.name, s.start, s.end, s.parent, s.req
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, name: &'static str, start: u64, end: u64, parent: u64) -> Span {
        Span {
            id,
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn union_of_overlapping_children() {
        let mut c = vec![(10, 20), (15, 30), (40, 50)];
        assert_eq!(covered(0, 100, &mut c), 30);
        // Clipped to the parent interval.
        let mut c = vec![(0, 20), (90, 120)];
        assert_eq!(covered(10, 100, &mut c), 20);
        let mut c: Vec<(u64, u64)> = vec![];
        assert_eq!(covered(0, 10, &mut c), 0);
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            sp(1, "ctl.update", 0, 100, 0),
            sp(2, "net.forward", 0, 30, 1),
            sp(3, "switch.install", 30, 60, 1),
            sp(4, "monocle.confirm", 60, 90, 1),
            sp(5, "pool.run_batch", 65, 80, 4),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![10, 30, 30, 15, 15]);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["ctl"], (10, 1));
        assert_eq!(layers["pool"], (15, 1));
    }

    #[test]
    fn nested_spans_record_parents() {
        enable();
        span("a.outer", 7, || {
            span("b.inner", 7, || std::hint::black_box(1 + 1));
        });
        let spans = take_thread();
        let outer = spans.iter().find(|s| s.name == "a.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "b.inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start >= outer.start && inner.end <= outer.end);
    }
}
