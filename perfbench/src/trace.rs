//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when
//! it started (its parent). Spans are kept in memory while a traced run
//! executes; the per-layer metrics and the trace file are computed from
//! them when it ends. A span's self time is its duration minus the
//! durations of its children: spans are recorded on one thread and
//! close innermost first, so children never overlap each other.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Calls, total time and self time of every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p as usize] -= span.duration_ns();
        }
    }
    own
}

/// Totals per call path (`root/child/grandchild`): spans of one name
/// under different parents stay apart.
pub fn by_path(spans: &[Span]) -> BTreeMap<String, Totals> {
    let own = self_times_ns(spans);
    // One path per distinct (parent path, name); parents precede their
    // children in `spans`.
    let mut ids: HashMap<(Option<usize>, &'static str), usize> = HashMap::new();
    let mut paths: Vec<(String, Totals)> = Vec::new();
    let mut path_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (span, own) in spans.iter().zip(own) {
        let parent = span.parent.map(|p| path_of[p as usize]);
        let id = *ids.entry((parent, span.name)).or_insert_with(|| {
            let path = match parent {
                Some(p) => format!("{}/{}", paths[p].0, span.name),
                None => span.name.to_string(),
            };
            paths.push((path, Totals::default()));
            paths.len() - 1
        });
        path_of.push(id);
        let t = &mut paths[id].1;
        t.calls += 1;
        t.total_s += span.duration_ns() as f64 * 1e-9;
        t.self_s += own as f64 * 1e-9;
    }
    paths.into_iter().collect()
}

thread_local! {
    static ACTIVE: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn start() {
    ACTIVE.with(|a| *a.borrow_mut() = Some(Tracer::new()));
}

/// Stops recording and returns everything recorded since [`start`].
pub fn stop() -> Tracer {
    ACTIVE
        .with(|a| a.borrow_mut().take())
        .expect("tracing was started")
}

/// Runs `f` inside a span named `name` when tracing is on; otherwise
/// just runs `f`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = ACTIVE.with(|a| a.borrow_mut().as_mut().map(|t| t.open(name)));
    let out = f();
    if let Some(id) = id {
        ACTIVE.with(|a| {
            a.borrow_mut()
                .as_mut()
                .expect("tracing stayed on inside the span")
                .close(id)
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 35).
        let spans = [
            s("root", None, 0, 100),
            s("a", Some(0), 10, 40),
            s("c", Some(1), 15, 35),
            s("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
    }

    #[test]
    fn totals_sum_calls_and_self_time_per_path() {
        let spans = [
            s("sweep", None, 0, 1_000),
            s("inject", Some(0), 100, 300),
            s("inject", Some(0), 400, 450),
            s("step", Some(0), 500, 900),
            s("inject", None, 2_000, 2_010),
            s("drain", Some(0), 950, 990),
            s("step", Some(5), 960, 970),
        ];
        let t = by_path(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-15;
        let names: Vec<&str> = t.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "inject",
                "sweep",
                "sweep/drain",
                "sweep/drain/step",
                "sweep/inject",
                "sweep/step"
            ]
        );
        assert_eq!(t["sweep/inject"].calls, 2);
        assert!(close(t["sweep/inject"].total_s, 250e-9));
        assert!(close(t["sweep/inject"].self_s, 250e-9));
        assert!(close(t["sweep"].self_s, 310e-9));
        assert!(close(t["sweep/drain"].self_s, 30e-9));
        assert_eq!(t["sweep/drain/step"].calls, 1);
        assert_eq!(t["inject"].calls, 1);
        // Self times of all spans add up to the time under the roots.
        let own: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(own, 1_000 + 10);
    }

    #[test]
    fn recorded_spans_nest_and_close_in_order() {
        start();
        let v = span("outer", || span("inner", || 7) + span("inner", || 1));
        let t = stop();
        assert_eq!(v, 8);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("outer", None), ("inner", Some(0)), ("inner", Some(0))]
        );
        for sp in t.spans() {
            assert!(sp.end_ns >= sp.start_ns);
        }
        // Off: no tracer, the closure still runs.
        assert_eq!(span("off", || 3), 3);
    }
}
