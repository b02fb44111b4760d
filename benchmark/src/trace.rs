//! Host-time spans recorded by the benchmark's own code, around its calls
//! into the product. Spans live in memory and are written out once, when
//! the run ends.
//!
//! Only one logical thread of control ever records: the main thread, or
//! rank 0 of the SPMD region the main thread is blocked on. Spans therefore
//! nest strictly in time and a single open-span stack gives every span its
//! parent.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Identifier shared by every span of one checkpoint or restore op.
    pub op: Option<u64>,
}

/// Handle of an open span; `None` when nothing is being recorded.
pub type SpanId = Option<usize>;

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
    paused: bool,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// `on == false` records nothing and costs one branch per call.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Suspends recording without closing anything; every other op runs
    /// paused so one run yields the tracing overhead.
    pub fn set_paused(&self, paused: bool) {
        if self.on {
            self.lock().paused = paused;
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a recording thread panicked")
    }

    fn open(&self, name: &'static str, new_op: bool) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        let mut g = self.lock();
        if g.paused {
            return None;
        }
        let parent = g.open.last().copied();
        let op = if new_op {
            g.ops += 1;
            Some(g.ops)
        } else {
            parent.and_then(|p| g.spans[p].op)
        };
        g.spans.push(Span { name, start_ns: now, end_ns: now, parent, op });
        let id = g.spans.len() - 1;
        g.open.push(id);
        Some(id)
    }

    /// Opens a span under whatever span is open now.
    pub fn begin(&self, name: &'static str) -> SpanId {
        self.open(name, false)
    }

    /// Opens the root span of a new op; its children inherit the op id.
    pub fn begin_op(&self, name: &'static str) -> SpanId {
        self.open(name, true)
    }

    /// Closes the span; closing one that is already closed changes nothing.
    pub fn end(&self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.t0.elapsed().as_nanos() as u64;
        let mut g = self.lock();
        if let Some(at) = g.open.iter().position(|&o| o == id) {
            g.open.remove(at);
            g.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span when `record` holds (callers pass "I am rank
    /// 0"), plainly otherwise.
    pub fn scope<R>(&self, record: bool, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = if record { self.begin(name) } else { None };
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Durations in seconds of the spans called `name` that belong to an
    /// op (`in_op`) or to set-up and probes (`!in_op`).
    pub fn durations(&self, name: &str, in_op: bool) -> Vec<f64> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name && s.op.is_some() == in_op)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Total self time per span name, in seconds, over the spans whose op
    /// root is called `root`: a span's duration minus the part of it its
    /// children cover.
    pub fn self_time_by_name(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut covered = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let root_of = |mut i: usize| {
            while let Some(p) = spans[i].parent.filter(|&p| spans[p].op == spans[i].op) {
                i = p;
            }
            spans[i].name
        };
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.op.is_some() && root_of(i) == root {
                let own = (s.end_ns - s.start_ns).saturating_sub(covered[i]);
                *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
            }
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): complete
    /// events on one track, nesting by time; parent and op ride in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<Json> = self
            .spans()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![("id".to_string(), Json::Num(id as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent".into(), Json::Num(p as f64)));
                }
                if let Some(op) = s.op {
                    args.push(("op".into(), Json::Num(op as f64)));
                }
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("args".into(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("traceEvents".into(), Json::Arr(events)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_inherit_the_op_and_give_self_time() {
        let t = Tracer::new(true);
        let run = t.begin("run");
        let op = t.begin_op("ckpt");
        let child = t.begin("delta.ckpt");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.scope(true, "core.sweep", || ());
        t.scope(false, "not.recorded", || ());
        t.end(op);
        t.end(run);

        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].parent, s[0].op), (None, None));
        assert_eq!((s[1].parent, s[1].op), (Some(0), Some(1)));
        assert_eq!((s[2].parent, s[2].op), (Some(1), Some(1)));
        assert_eq!((s[3].name, s[3].parent, s[3].op), ("core.sweep", Some(1), Some(1)));

        let own = t.self_time_by_name("ckpt");
        let total: f64 = own.values().sum();
        let whole = t.durations("ckpt", true)[0];
        assert!(t.durations("ckpt", false).is_empty() && t.durations("run", false).len() == 1);
        t.end(op);
        assert_eq!(t.durations("ckpt", true)[0], whole, "closing twice changes nothing");
        assert!((total - whole).abs() < 1e-9, "self times tile the op: {total} vs {whole}");
        assert!(own["delta.ckpt"] >= 0.002 && own["ckpt"] < whole);
        assert!(t.self_time_by_name("restore").is_empty());

        let doc = crate::json::parse(&t.to_chrome_trace()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().len(), 4);
    }

    #[test]
    fn off_and_paused_record_nothing() {
        let off = Tracer::new(false);
        off.end(off.begin_op("ckpt"));
        assert!(off.spans().is_empty());

        let t = Tracer::new(true);
        t.set_paused(true);
        t.end(t.begin_op("ckpt"));
        t.set_paused(false);
        t.end(t.begin_op("ckpt"));
        assert_eq!(t.spans().len(), 1);
    }
}
