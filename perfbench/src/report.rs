//! Metrics, output checks and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Human-readable context printed beside the value.
    pub note: String,
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Observed vs expected, for the log.
    pub detail: String,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted in the load phase.
    pub attempted: u64,
    /// Operations that failed (see README.md for what counts).
    pub failed: u64,
    /// Output checks, in the order they were made.
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A report for `workload` with nothing recorded yet.
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            ..Self::default()
        }
    }

    /// Record a check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    /// Compare observed pinned outputs against the expected ones (when
    /// this seed has any) and record one check per value.
    pub fn check_pins(
        &mut self,
        observed: &[(&'static str, u64)],
        expected: Option<&[(&'static str, u64)]>,
    ) {
        let rendered: Vec<String> = observed.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let Some(expected) = expected else {
            self.check(
                "pins",
                true,
                format!("no pins for this seed; observed {}", rendered.join(" ")),
            );
            return;
        };
        for (name, want) in expected {
            let got = observed.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
            self.check(
                format!("pin {name}"),
                got == Some(*want),
                format!("observed {got:?}, pinned {want}"),
            );
        }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metric_noted(name, value, unit, String::new());
    }

    /// Add a metric with a note.
    pub fn metric_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The value of metric `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable lines: checks, then metrics.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for c in &self.checks {
            let mark = if c.passed { "ok  " } else { "FAIL" };
            let _ = writeln!(s, "  check {mark} {}: {}", c.name, c.detail);
        }
        let _ = writeln!(
            s,
            "  failed {} of {} attempted operations",
            self.failed, self.attempted
        );
        for m in &self.metrics {
            let _ = write!(s, "  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
            if !m.note.is_empty() {
                let _ = write!(s, "  ({})", m.note);
            }
            s.push('\n');
        }
        s
    }

    /// The single-line JSON result.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The `q`-th percentile (0–100) of sorted samples, nearest rank.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set of this process (VmHWM) in MiB; 0 without procfs.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a load phase measured: the latency of every completed operation
/// and the wall time of the whole phase.
#[derive(Debug, Clone, Default)]
pub struct Load {
    /// Latency of every completed operation, ns.
    pub lat_ns: Vec<u64>,
    /// Wall time of the load phase, s.
    pub wall_s: f64,
}

impl Load {
    /// Fold in the operations of a concurrent load thread.
    pub fn merge(&mut self, other: &Load) {
        self.lat_ns.extend(&other.lat_ns);
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    /// Completed operations per second of load wall time.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.lat_ns.len() as f64, self.wall_s)
    }
}

/// Add the end-to-end metrics: `ops_per_s`, `op_p50_ms`, `op_tail_ms` at
/// the workload's fixed tail percentile, `setup_s` (median of the set-up
/// repetitions) and `peak_rss_mb` (`peak_mib`, the workload's reading of
/// [`peak_rss_mib`]). The tail's note also gives p90 and p99 and the
/// samples beyond p99, the figures the tail percentile is chosen by.
pub fn end_to_end(r: &mut Report, load: &Load, tail_pct: f64, setups_s: &[f64], peak_mib: f64) {
    let mut sorted = load.lat_ns.clone();
    sorted.sort_unstable();
    let n = sorted.len();
    r.metric_noted(
        "ops_per_s",
        load.ops_per_s(),
        "ops/s",
        format!("{n} operations in {:.3} s", load.wall_s),
    );
    r.metric("op_p50_ms", percentile(&sorted, 50.0) as f64 / 1e6, "ms");
    let beyond = |v: u64| sorted.iter().filter(|&&s| s > v).count();
    let tail = percentile(&sorted, tail_pct);
    let (p90, p99) = (percentile(&sorted, 90.0), percentile(&sorted, 99.0));
    r.metric_noted(
        "op_tail_ms",
        tail as f64 / 1e6,
        "ms",
        format!(
            "p{tail_pct} of {n} samples, {} beyond it; p90 {} ms, p99 {} ms with {} beyond",
            beyond(tail),
            p90 as f64 / 1e6,
            p99 as f64 / 1e6,
            beyond(p99)
        ),
    );
    let rendered: Vec<String> = setups_s.iter().map(|s| format!("{s:.3}")).collect();
    r.metric_noted(
        "setup_s",
        median(setups_s),
        "s",
        format!(
            "median of {} set-ups: {}",
            setups_s.len(),
            rendered.join(" ")
        ),
    );
    r.metric("peak_rss_mb", peak_mib, "MiB");
}

/// Ratio `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("x");
        r.attempted = 3;
        r.metric("ops_per_s", 12.0, "ops/s");
        r.metric("op_p50_ms", 0.125, "ms");
        assert_eq!(
            r.render_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"ops_per_s\": {\"value\": 12.0, \"unit\": \"ops/s\"}, \
             \"op_p50_ms\": {\"value\": 0.125, \"unit\": \"ms\"}}}"
        );
    }
}

/// Every per-layer metric a traced run prints, with its unit, in output
/// order (`BENCHMARK.json` lists the same names). A workload that never
/// calls into a layer reports 0 for its metrics: the layer is bypassed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("geom.deploy_ms", "ms"),
    ("graph.unit_disk_ms", "ms"),
    ("cluster.build_ms", "ms"),
    ("cluster.move_ins", "count"),
    ("cluster.reconfigs", "count/op"),
    ("cluster.rehomed", "count/op"),
    ("cluster.repair_ms_per_reconfig", "ms"),
    ("cluster.slot_churn", "count/op"),
    ("cluster.audit_scope", "count/op"),
    ("mobility.step_ms", "ms"),
    ("mobility.diff_ms", "ms"),
    ("mobility.repair_ms", "ms"),
    ("mobility.slots_ms", "ms"),
    ("mobility.audit_ms", "ms"),
    ("mobility.moved", "count/op"),
    ("mobility.edge_events", "count/op"),
    ("mobility.deferred", "count/op"),
    ("knowledge.build_ms", "ms"),
    ("knowledge.get_us", "us"),
    ("knowledge.hits", "count/op"),
    ("knowledge.misses", "count/op"),
    ("knowledge.patched", "count/op"),
    ("knowledge.patched_scope", "count/op"),
    ("knowledge.fallbacks", "count/op"),
    ("knowledge.patched_share", "ratio"),
    ("runner.run_ms", "ms"),
    ("radio.rounds", "count/op"),
    ("radio.rounds_per_s", "1/s"),
    ("radio.parallel_ms", "ms"),
    ("radio.cpu_util", "ratio"),
    ("radio.max_awake", "count/op"),
    ("session.apply_us", "us"),
    ("session.apply_us.cff", "us"),
    ("session.apply_us.dfo", "us"),
    ("session.apply_us.rcff", "us"),
    ("session.apply_us.multicast", "us"),
    ("session.apply_us.snapshot", "us"),
    ("session.apply_us.kill", "us"),
    ("session.apply_us.revive", "us"),
    ("session.apply_us.move_in", "us"),
    ("session.apply_us.move_out", "us"),
    ("session.apply_us.repair", "us"),
    ("session.apply_us.mobility", "us"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.bytes_out", "B/op"),
    ("codec.bytes_in", "B/op"),
    ("server.overhead_us", "us"),
    ("server.rejected", "count"),
    ("server.errors", "count"),
    ("trial.run_ms.cff", "ms"),
    ("trial.run_ms.dfo", "ms"),
    ("trial.run_ms.rcff", "ms"),
    ("campaign.pool_util", "ratio"),
    ("campaign.journal_appends", "count"),
    ("campaign.journal_append_us", "us"),
    ("self_pct.knowledge.get", "%"),
    ("self_pct.runner.run", "%"),
    ("self_pct.mobility.step", "%"),
    ("self_pct.mobility.diff", "%"),
    ("self_pct.mobility.repair", "%"),
    ("self_pct.mobility.slots", "%"),
    ("self_pct.mobility.audit", "%"),
    ("self_pct.codec.encode", "%"),
    ("self_pct.net.round_trip", "%"),
    ("self_pct.session.apply", "%"),
    ("self_pct.codec.decode", "%"),
    ("self_pct.journal.intent", "%"),
    ("self_pct.trial.run", "%"),
    ("self_pct.journal.commit", "%"),
    ("self_pct.unattributed", "%"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.traced_ops_per_s", "ops/s"),
    ("trace.overhead_pct", "%"),
];

/// Latency sums of a traced run's traced and untraced operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    /// Untraced operations.
    pub untraced: u64,
    /// Their summed latency, ns.
    pub untraced_ns: u64,
    /// Traced operations.
    pub traced: u64,
    /// Their summed latency, ns.
    pub traced_ns: u64,
}

impl Split {
    /// Count one operation.
    pub fn add(&mut self, traced: bool, ns: u64) {
        if traced {
            self.traced += 1;
            self.traced_ns += ns;
        } else {
            self.untraced += 1;
            self.untraced_ns += ns;
        }
    }

    /// Fold another thread's split in.
    pub fn merge(&mut self, o: &Split) {
        self.untraced += o.untraced;
        self.untraced_ns += o.untraced_ns;
        self.traced += o.traced;
        self.traced_ns += o.traced_ns;
    }
}

/// Collects a traced run's per-layer values and emits the full
/// [`PER_LAYER`] list.
pub struct Layers {
    values: std::collections::BTreeMap<&'static str, f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Self::new()
    }
}

impl Layers {
    /// No values yet.
    pub fn new() -> Self {
        Self {
            values: std::collections::BTreeMap::new(),
        }
    }

    /// Set `name` (which must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Set the tracing-overhead metrics from the latencies of the traced
    /// and untraced operations of a run with `threads` load threads.
    pub fn overhead(&mut self, split: &Split, threads: usize) {
        let rate = |ns: u64, n: u64| ratio(n as f64 * threads as f64, ns as f64 / 1e9);
        let u = rate(split.untraced_ns, split.untraced);
        let t = rate(split.traced_ns, split.traced);
        self.set("trace.untraced_ops_per_s", u);
        self.set("trace.traced_ops_per_s", t);
        self.set("trace.overhead_pct", 100.0 * ratio(u - t, u));
    }

    /// Emit every per-layer metric into `r`: the values set, the self
    /// times of the operation's spans from `ops`, and 0 for the rest.
    pub fn finish(mut self, r: &mut Report, ops: &crate::trace::Summary) {
        for (name, _) in PER_LAYER {
            if let Some(span) = name.strip_prefix("self_pct.") {
                let span = if span == "unattributed" { "op" } else { span };
                self.values.insert(name, ops.self_pct(span));
            }
        }
        for (name, unit) in PER_LAYER {
            let unit: &'static str = unit;
            r.metric(*name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
