//! In-memory span tracing from the benchmark's own code.
//!
//! A [`Tracer`] belongs to one thread. It records a span (name, start,
//! end, parent span, operation id) around each call into a layer, keeps
//! the spans in memory, and condenses them into a [`Summary`] when the
//! run ends. A span's *self time* is its duration minus the durations of
//! its direct children; the self time of the per-operation root span
//! `op` is the part of each operation that no named span covers
//! (`unattributed`).
//!
//! Two kinds of child span come from numbers the program already returns
//! rather than from clocks read here: `EpochRecord` phase timings under
//! `mobility.step`, and the daemon's `wall_us` under `net.round_trip`.
//! [`Tracer::inner`] attaches those.

use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name, e.g. `knowledge.get`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or none.
    pub parent: u32,
    /// Operation the span belongs to (0 = set-up).
    pub op: u64,
}

/// Per-thread span recorder. Disabled tracers record nothing and cost
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start operation `op`: tag subsequent spans with it and record
    /// them only if `traced`.
    pub fn begin_op(&mut self, op: u64, traced: bool) {
        self.op = op;
        self.enabled = traced;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.open.push(idx);
    }

    /// Close the innermost open span; returns its index for
    /// [`Tracer::inner`] (none when disabled).
    pub fn exit(&mut self) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx as usize].end_ns = self.now_ns();
        Some(idx)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Attach to span `parent` a child of `dur_ns` for a phase the
    /// program timed itself. Only its duration enters the summary; it is
    /// laid out from the parent's start.
    pub fn inner(&mut self, parent: Option<u32>, name: &'static str, dur_ns: u64) {
        let Some(parent) = parent else { return };
        let start_ns = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            op: self.op,
        });
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Condense the recorded spans.
    pub fn summary(&self) -> Summary {
        assert!(self.open.is_empty(), "summary with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = Summary::default();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let agg = out.by_name.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += total;
            agg.self_ns += total.saturating_sub(kids);
        }
        out
    }
}

/// Per-name aggregate of a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Span aggregates keyed by name; summaries of different threads add up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Aggregates by span name.
    pub by_name: BTreeMap<&'static str, Agg>,
}

impl Summary {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Summary) {
        for (name, a) in &other.by_name {
            let e = self.by_name.entry(name).or_default();
            e.count += a.count;
            e.total_ns += a.total_ns;
            e.self_ns += a.self_ns;
        }
    }

    /// The aggregate for `name` (zero if never recorded).
    pub fn get(&self, name: &str) -> Agg {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of `name` spans in milliseconds (0 if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let a = self.get(name);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.count as f64 / 1e6
        }
    }

    /// Mean duration of `name` spans in microseconds (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.mean_ms(name) * 1e3
    }

    /// Self time of `name` as a percentage of all `op` span time.
    pub fn self_pct(&self, name: &str) -> f64 {
        let op = self.get("op").total_ns;
        if op == 0 {
            0.0
        } else {
            100.0 * self.get(name).self_ns as f64 / op as f64
        }
    }
}

/// CPU time consumed by the whole process so far, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the 64-bit Linux
    // layout, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("op");
        t.enter("a");
        let a = t.exit();
        t.inner(a, "a.x", 1_000);
        t.exit();
        let s = t.summary();
        let (op, a, x) = (s.get("op"), s.get("a"), s.get("a.x"));
        assert_eq!(x.self_ns, 1_000);
        assert_eq!(a.self_ns, a.total_ns.saturating_sub(1_000));
        assert_eq!(op.self_ns, op.total_ns - a.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("op", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(t.summary().by_name.is_empty());
    }
}
