//! The `dsnet perf` benchmark suite and its deterministic ledger.
//!
//! Runs a fixed set of seeded scenarios over the hot simulation paths and
//! writes a JSON *ledger* (`BENCH_<date>.json`) with one entry per
//! scenario. Every key an entry can carry is one row of the ledger's field
//! table, which names the key's kind:
//!
//! * **counters** — `nodes`, `reps`, `rounds`, `delivered`, `targets`, and
//!   the `maint_*`/`serve_*` counts of the mobility and serve breakdowns.
//!   These are pure functions of the seeds and must be byte-identical
//!   across machines and `--threads` values; CI compares them exactly
//!   against the committed baseline.
//! * **timings** — `wall_ms`, `rounds_per_sec`, the breakdowns' `*_ms`,
//!   rate and latency fields, and the latency histogram (plus the
//!   top-level `threads` and `peak_rss_kb`). These vary by machine; CI only
//!   checks that `rounds_per_sec` has not regressed by more than the
//!   configured fraction against the committed baseline (which assumes
//!   comparable runners — see DESIGN.md §11).
//!
//! [`render_ledger`] can omit the timing fields entirely
//! (`include_timing = false`), which is how the thread-count determinism
//! pin works: two `dsnet perf --quick` runs on 1 and 2 threads must
//! render identically modulo timing.

use crate::campaign;
use crate::campaign_engine::{
    CampaignSpec, ChurnTemplate, FailureTemplate, LossSpec, MobilitySpec, ProtocolSpec,
};
use crate::protocols::runner::RunConfig;
use crate::{Broadcast, NetworkBuilder, Protocol};
use dsnet_geom::rng::derive_seed;
use dsnet_geom::{Deployment, DeploymentConfig};
use dsnet_mobility::{MobileNetwork, MobilityConfig, RandomWaypoint, WaypointParams};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Options for a perf-suite run.
#[derive(Debug, Clone, Default)]
pub struct PerfOptions {
    /// Shrink every scenario (fewer nodes, reps, epochs) so the whole
    /// suite finishes in a few seconds.  Quick ledgers are only
    /// comparable to other quick ledgers.
    pub quick: bool,
    /// Worker threads for the campaign-driven scenarios (0 = available
    /// parallelism).  Changes timing only, never counters.
    pub threads: usize,
    /// Override the ledger date (`YYYY-MM-DD`); defaults to today (UTC).
    pub date: Option<String>,
}

/// One benchmark scenario's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Stable scenario name (ledger key).
    pub name: &'static str,
    /// Deployment size (largest `n` the scenario simulates).
    pub nodes: u64,
    /// Repetitions (broadcast runs or campaign trials) performed.
    pub reps: u64,
    /// Total simulated rounds across all repetitions (deterministic).
    pub rounds: u64,
    /// Total targets delivered across all repetitions (deterministic).
    pub delivered: u64,
    /// Total intended receivers across all repetitions (deterministic).
    pub targets: u64,
    /// Wall-clock for the scenario, milliseconds (timing).
    pub wall_ms: f64,
    /// Simulated rounds per wall-clock second (timing).
    pub rounds_per_sec: f64,
    /// Maintenance breakdown for mobility scenarios (`None` elsewhere).
    pub maintenance: Option<MaintenanceBreakdown>,
    /// Server breakdown for the `serve_sessions` scenario (`None`
    /// elsewhere; populated by `dsnet-server`).
    pub server: Option<ServeBreakdown>,
}

/// Measurements of the `serve_sessions` load-test scenario (driven by
/// `dsnet-server`, which appends the scenario to the core suite's
/// ledger).
///
/// Like [`MaintenanceBreakdown`], the count fields are pure functions of
/// the seeds — CI gates them exactly — while the rate/latency fields are
/// machine-dependent timing and are omitted from timing-free renders.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBreakdown {
    /// Concurrent sessions hosted (all alive at once; deterministic).
    pub sessions: u64,
    /// Total wire commands executed across sessions (deterministic).
    pub commands: u64,
    /// Client threads driving the load (configuration; deterministic).
    pub client_threads: u64,
    /// Sessions created+driven+destroyed per wall-clock second (timing).
    pub sessions_per_sec: f64,
    /// Median client-observed command round-trip, microseconds (timing).
    pub cmd_p50_us: f64,
    /// p99 client-observed command round-trip, microseconds (timing).
    pub cmd_p99_us: f64,
    /// p999 client-observed command round-trip, microseconds (timing).
    pub cmd_p999_us: f64,
    /// Log2 latency histogram: bucket `i` counts commands whose
    /// round-trip fell in `[2^i, 2^(i+1))` microseconds; trailing empty
    /// buckets are trimmed (timing).
    pub cmd_hist_us: Vec<u64>,
}

/// Per-phase maintenance measurements of a mobility scenario, harvested
/// from one standalone [`MobileNetwork`] drive that replicates the
/// campaign's first trial (same deployment, trajectory and epoch count).
///
/// The count fields are pure functions of the seeds — CI compares them
/// exactly, like the scenario counters. The `*_ms` fields are wall-clock
/// phase breakdowns ([`dsnet_mobility::MaintenanceTimings`] sums) and are
/// omitted from timing-free renders.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenanceBreakdown {
    /// Total `node-move-out`/`move-in` reconfigurations (deterministic).
    pub reconfigs: u64,
    /// Total stranded nodes re-homed (deterministic).
    pub rehomed: u64,
    /// Total edge appear/disappear events (deterministic).
    pub edge_events: u64,
    /// Total slot-value changes observed (deterministic).
    pub slot_churn: u64,
    /// Nodes re-verified by the dirty-scoped audit (deterministic).
    pub audit_scope: u64,
    /// Epochs that fell back to a full-structure audit (deterministic).
    pub full_audits: u64,
    /// Knowledge-cache hits over the probe broadcasts (deterministic).
    pub cache_hits: u64,
    /// Knowledge-cache misses over the probe broadcasts (deterministic).
    pub cache_misses: u64,
    /// Cache misses served by the dirty-scoped patch path instead of a
    /// full rebuild (deterministic; subset of `cache_misses`).
    pub knowledge_patches: u64,
    /// Total nodes recomputed across all patched closures
    /// (deterministic).
    pub knowledge_scope: u64,
    /// Patch attempts that fell back to a full rebuild (deterministic).
    pub knowledge_fallbacks: u64,
    /// Broadcast-probe wall-clock — knowledge `get` + engine run, ms
    /// (timing).
    pub probe_ms: f64,
    /// Topology-diff phase wall-clock, ms (timing).
    pub diff_ms: f64,
    /// Structure-repair phase wall-clock, ms (timing).
    pub repair_ms: f64,
    /// Slot-churn accounting wall-clock, ms (timing).
    pub slots_ms: f64,
    /// Invariant-audit wall-clock, ms (timing).
    pub audit_ms: f64,
}

/// A full perf-suite run: header plus one [`ScenarioResult`] per scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Ledger schema identifier (bumped on incompatible format changes).
    pub schema: &'static str,
    /// Civil date of the run, `YYYY-MM-DD` (UTC).
    pub date: String,
    /// Whether the suite ran with `--quick` sizes.
    pub quick: bool,
    /// Worker threads used for campaign-driven scenarios (timing).
    pub threads: usize,
    /// Peak resident set of the process, KiB (timing; 0 if unknown).
    pub peak_rss_kb: u64,
    /// Scenario measurements, in fixed suite order.
    pub scenarios: Vec<ScenarioResult>,
}

/// Current ledger schema identifier.
pub const SCHEMA: &str = "dsnet-bench-ledger/2";

/// What one ledger field records, and how to read it off a scenario.
/// A reader returns `None` when the scenario does not carry the field
/// (a breakdown it has no part in).
#[derive(Clone, Copy)]
enum Kind {
    /// A deterministic counter: always rendered, gated exactly.
    Counter(fn(&ScenarioResult) -> Option<u64>),
    /// A machine-dependent timing value rendered with this many decimal
    /// places; omitted from timing-free renders.
    Timing(usize, fn(&ScenarioResult) -> Option<f64>),
    /// A log2 latency histogram (timing).
    Histogram(fn(&ScenarioResult) -> Option<&[u64]>),
}

use Kind::{Counter, Histogram, Timing};

fn maint(s: &ScenarioResult) -> Option<&MaintenanceBreakdown> {
    s.maintenance.as_ref()
}

fn serve(s: &ScenarioResult) -> Option<&ServeBreakdown> {
    s.server.as_ref()
}

/// The ledger's key for the throughput the regression gate compares.
const RATE_KEY: &str = "rounds_per_sec";

/// Every per-scenario ledger key after `name`, in render order. This
/// table is the only place a key is spelled: [`render_ledger`] writes
/// the rows a scenario carries, and [`compare`] gates its counters.
#[rustfmt::skip] // one row per field, aligned as a table
const FIELDS: &[(&str, Kind)] = &[
    ("nodes",                     Counter(|s| Some(s.nodes))),
    ("reps",                      Counter(|s| Some(s.reps))),
    ("rounds",                    Counter(|s| Some(s.rounds))),
    ("delivered",                 Counter(|s| Some(s.delivered))),
    ("targets",                   Counter(|s| Some(s.targets))),
    ("maint_reconfigs",           Counter(|s| Some(maint(s)?.reconfigs))),
    ("maint_rehomed",             Counter(|s| Some(maint(s)?.rehomed))),
    ("maint_edge_events",         Counter(|s| Some(maint(s)?.edge_events))),
    ("maint_slot_churn",          Counter(|s| Some(maint(s)?.slot_churn))),
    ("maint_audit_scope",         Counter(|s| Some(maint(s)?.audit_scope))),
    ("maint_full_audits",         Counter(|s| Some(maint(s)?.full_audits))),
    ("maint_cache_hits",          Counter(|s| Some(maint(s)?.cache_hits))),
    ("maint_cache_misses",        Counter(|s| Some(maint(s)?.cache_misses))),
    ("maint_knowledge_patches",   Counter(|s| Some(maint(s)?.knowledge_patches))),
    ("maint_knowledge_scope",     Counter(|s| Some(maint(s)?.knowledge_scope))),
    ("maint_knowledge_fallbacks", Counter(|s| Some(maint(s)?.knowledge_fallbacks))),
    ("maint_probe_ms",            Timing(3, |s| Some(maint(s)?.probe_ms))),
    ("maint_diff_ms",             Timing(3, |s| Some(maint(s)?.diff_ms))),
    ("maint_repair_ms",           Timing(3, |s| Some(maint(s)?.repair_ms))),
    ("maint_slots_ms",            Timing(3, |s| Some(maint(s)?.slots_ms))),
    ("maint_audit_ms",            Timing(3, |s| Some(maint(s)?.audit_ms))),
    ("serve_sessions",            Counter(|s| Some(serve(s)?.sessions))),
    ("serve_commands",            Counter(|s| Some(serve(s)?.commands))),
    ("serve_client_threads",      Counter(|s| Some(serve(s)?.client_threads))),
    ("serve_sessions_per_sec",    Timing(1, |s| Some(serve(s)?.sessions_per_sec))),
    ("serve_cmd_p50_us",          Timing(1, |s| Some(serve(s)?.cmd_p50_us))),
    ("serve_cmd_p99_us",          Timing(1, |s| Some(serve(s)?.cmd_p99_us))),
    ("serve_cmd_p999_us",         Timing(1, |s| Some(serve(s)?.cmd_p999_us))),
    ("serve_cmd_hist_us",         Histogram(|s| Some(&serve(s)?.cmd_hist_us))),
    ("wall_ms",                   Timing(3, |s| Some(s.wall_ms))),
    (RATE_KEY,                    Timing(1, |s| Some(s.rounds_per_sec))),
];

/// Run the full fixed suite and return the ledger.
///
/// Scenario roster (full / `--quick` sizes):
///
/// | name | what it exercises | full | quick |
/// |---|---|---|---|
/// | `static_cff` | engine inner loop + knowledge cache, improved CFF | 500 n × 1200 reps | 120 n × 20 reps |
/// | `static_cff_10k` | SoA engine + sharded delivery on a density-scaled field | 10k n × 20 reps | 2k n × 3 reps |
/// | `static_cff_100k` | the 100k-node tentpole: same path at full scale | 100k n × 2 reps | 20k n × 1 rep |
/// | `static_dfo` | DFO token walk on the same deployment | 500 n × 60 reps | 120 n × 5 reps |
/// | `lossy_rcff_repair` | reliable CFF, 10% loss, backbone failure + repair, via the campaign engine | 150 n × 150 reps | 50 n × 2 reps |
/// | `mobility_100ep` | random-waypoint motion + live maintenance, via the campaign engine | 120 n × 3 reps × 100 epochs | 40 n × 2 reps × 10 epochs |
/// | `mobility_400ep` | same path, 4× the motion history (long-horizon maintenance) | 120 n × 2 reps × 400 epochs | 40 n × 1 rep × 20 epochs |
/// | `mobility_bcast_10k` | broadcast every epoch under waypoint motion: the dirty-scoped knowledge patch path | 10k n × 24 epochs | 2k n × 6 epochs |
pub fn run_suite(opts: &PerfOptions) -> Ledger {
    let scenarios = vec![
        run_static(opts, "static_cff", Protocol::ImprovedCff),
        run_static_scaled(opts, "static_cff_10k"),
        run_static_scaled(opts, "static_cff_100k"),
        run_static(opts, "static_dfo", Protocol::Dfo),
        run_lossy_rcff_repair(opts),
        run_mobility(opts, "mobility_100ep"),
        run_mobility(opts, "mobility_400ep"),
        run_mobility_bcast(opts),
    ];
    Ledger {
        schema: SCHEMA,
        date: opts.date.clone().unwrap_or_else(today_utc),
        quick: opts.quick,
        threads: opts.threads,
        peak_rss_kb: peak_rss_kb(),
        scenarios,
    }
}

/// Static deployment, repeated sink broadcasts with a warm knowledge
/// cache — the tentpole hot path.
fn run_static(opts: &PerfOptions, name: &'static str, protocol: Protocol) -> ScenarioResult {
    let nodes = if opts.quick { 120 } else { 500 };
    // Full-suite reps are sized so each scenario runs long enough
    // (≳100 ms) that the CI regression gate is not dominated by timer
    // noise.
    let reps: u64 = match (name, opts.quick) {
        ("static_cff", false) => 1200,
        ("static_cff", true) => 20,
        (_, false) => 60,
        (_, true) => 5,
    };
    let net = NetworkBuilder::paper_field(10.0, nodes, 7)
        .build()
        .expect("incremental deployments always build");
    let cfg = RunConfig {
        record_trace: false,
        ..RunConfig::default()
    };
    let sink = net.sink();
    best_of(name, nodes as u64, reps, passes(opts), || {
        let (mut rounds, mut delivered, mut targets) = (0u64, 0u64, 0u64);
        for _ in 0..reps {
            let out = net.run(&Broadcast::new(protocol, sink), &cfg).outcome;
            rounds += out.rounds;
            delivered += out.delivered as u64;
            targets += out.targets as u64;
        }
        (rounds, delivered, targets)
    })
}

/// Density-scaled unit-disk fields at 10k/100k nodes: the struct-of-arrays
/// engine with cell-sharded delivery and sleep skipping, warm knowledge
/// cache. The field side grows as `sqrt(n / 5)` so node density (and
/// therefore per-node degree) stays constant while `n` scales — these
/// scenarios measure the engine's per-round cost, not a densifying graph.
/// `--threads` selects the intra-run worker count; the counters are
/// thread-invariant by the engine's determinism contract.
fn run_static_scaled(opts: &PerfOptions, name: &'static str) -> ScenarioResult {
    let (nodes, reps): (usize, u64) = match (name, opts.quick) {
        ("static_cff_10k", false) => (10_000, 20),
        ("static_cff_10k", true) => (2_000, 3),
        ("static_cff_100k", false) => (100_000, 2),
        _ => (20_000, 1),
    };
    let side = (nodes as f64 / 5.0).sqrt();
    let net = NetworkBuilder::paper_field(side, nodes, 7)
        .build()
        .expect("incremental deployments always build");
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.threads
    };
    let cfg = RunConfig {
        record_trace: false,
        shards: Some(net.shard_plan(64)),
        threads,
        ..RunConfig::default()
    };
    let sink = net.sink();
    best_of(name, nodes as u64, reps, passes(opts), || {
        let (mut rounds, mut delivered, mut targets) = (0u64, 0u64, 0u64);
        for _ in 0..reps {
            let out = net
                .run(&Broadcast::new(Protocol::ImprovedCff, sink), &cfg)
                .outcome;
            rounds += out.rounds;
            delivered += out.delivered as u64;
            targets += out.targets as u64;
        }
        (rounds, delivered, targets)
    })
}

/// Reliable CFF under 10% loss with a backbone fail-stop and repair on,
/// run through the campaign engine so `--threads` exercises real
/// parallelism.
fn run_lossy_rcff_repair(opts: &PerfOptions) -> ScenarioResult {
    let (n, reps) = if opts.quick { (50, 2) } else { (150, 150) };
    let spec = CampaignSpec {
        name: "perf-lossy".into(),
        field_side: 10.0,
        ns: vec![n],
        reps,
        base_seed: 7,
        protocols: vec![ProtocolSpec::ReliableCff],
        channels: vec![1],
        failures: vec![FailureTemplate::Backbone { count: 1, round: 1 }],
        churn: vec![ChurnTemplate::default()],
        losses: vec![LossSpec::from_probability(0.1)],
        repair: vec![true],
        mobility: vec![MobilitySpec::None],
        max_retries: 3,
        record_trace: false,
    };
    run_campaign_scenario("lossy_rcff_repair", n as u64, &spec, opts)
}

/// Random-waypoint mobility followed by an improved-CFF broadcast,
/// through the campaign engine. `mobility_100ep` is the original
/// 3-rep × 100-epoch cell; `mobility_400ep` drives 4× the motion history
/// over 2 reps so long-horizon maintenance (id-space growth, cumulative
/// re-homing) shows up in the ledger.
fn run_mobility(opts: &PerfOptions, name: &'static str) -> ScenarioResult {
    let (n, reps, epochs) = match (name, opts.quick) {
        ("mobility_400ep", false) => (120, 2, 400),
        ("mobility_400ep", true) => (40, 1, 20),
        (_, false) => (120, 3, 100),
        (_, true) => (40, 2, 10),
    };
    let spec = CampaignSpec {
        name: "perf-mobility".into(),
        field_side: 10.0,
        ns: vec![n],
        reps,
        base_seed: 7,
        protocols: vec![ProtocolSpec::ImprovedCff],
        channels: vec![1],
        failures: vec![FailureTemplate::None],
        churn: vec![ChurnTemplate::default()],
        losses: vec![LossSpec::none()],
        repair: vec![false],
        mobility: vec![MobilitySpec::RandomWaypoint {
            speed_milli: 50,
            pause: 2,
            epochs,
        }],
        max_retries: 2,
        record_trace: false,
    };
    let mut result = run_campaign_scenario(name, n as u64, &spec, opts);
    result.maintenance = Some(measure_maintenance(&spec));
    result
}

/// Drive one standalone [`MobileNetwork`] that replicates the campaign's
/// first mobility trial — the same deployment, trajectory stream and
/// epoch count, built by the campaign's own constructor — and sum its
/// per-epoch [`dsnet_mobility::MaintenanceTimings`] into a ledger
/// breakdown. Periodic broadcast probes (epochs/4 apart) exercise the
/// knowledge cache so the hit/miss counters are live.
fn measure_maintenance(spec: &CampaignSpec) -> MaintenanceBreakdown {
    let trial = &spec.expand()[0];
    let (_, mut mob) = campaign::mobile_network(trial);
    let epochs = trial.mobility.epochs();
    let cfg = MobilityConfig {
        broadcast_every: u64::from((epochs / 4).max(1)),
        ..MobilityConfig::default()
    };
    let report = mob
        .run(u64::from(epochs), &cfg)
        .expect("maintenance preserves the paper's invariants");
    breakdown_of(&report)
}

/// Sum a mobility report's per-epoch timings into a ledger breakdown.
fn breakdown_of(report: &dsnet_mobility::MobilityReport) -> MaintenanceBreakdown {
    let t = report.summed_timings();
    MaintenanceBreakdown {
        reconfigs: report.total_reconfigs(),
        rehomed: report.total_rehomed(),
        edge_events: report.total_edge_events(),
        slot_churn: report.total_slot_churn(),
        audit_scope: t.audit_scope as u64,
        full_audits: u64::from(t.full_audits),
        cache_hits: t.cache_hits,
        cache_misses: t.cache_misses,
        knowledge_patches: t.knowledge_patches,
        knowledge_scope: t.knowledge_scope,
        knowledge_fallbacks: t.knowledge_fallbacks,
        probe_ms: t.probe_ns as f64 / 1e6,
        diff_ms: t.diff_ns as f64 / 1e6,
        repair_ms: t.repair_ns as f64 / 1e6,
        slots_ms: t.slots_ns as f64 / 1e6,
        audit_ms: t.audit_ns as f64 / 1e6,
    }
}

/// Broadcast-per-epoch under random-waypoint motion at 10k nodes: the
/// dirty-scoped knowledge patch path. Every epoch bumps the structure
/// version and immediately probes a sink broadcast, so with patching
/// disabled (`DSNET_KNOWLEDGE_PATCH=off`) every probe pays a full O(n)
/// `build_knowledge` pass while the patch path recomputes only the dirty
/// closure — the ledger's `rounds_per_sec` is the headline comparison
/// between the two.
///
/// The field is a *static backbone* with a mobile minority: a member
/// leaf roams under pedestrian-speed random-waypoint motion
/// ([`SparseMotion`], no pauses — every epoch churns) while the
/// infrastructure stays put. That is the regime the patch targets — leaf
/// departures dirty a few dozen nodes per epoch, so an O(n) rebuild per
/// probe is pure waste. (Backbone movers detach whole subtrees and
/// legitimately fall back to a rebuild; `mobility_400ep` keeps covering
/// that everything-moves regime.)
///
/// `rounds_per_sec` is computed over the summed **probe** wall
/// (`probe_ns`: knowledge acquisition + broadcast engine), not the whole
/// epoch: repair, diff and audit costs are identical on both paths and
/// would only dilute the comparison. `wall_ms` still reports the whole
/// timed run. The probe transmits on 2 channels — the paper's multi-
/// channel CFF — which also keeps the engine share of the probe small.
///
/// Setup (the deployment, a bootstrap build to learn the initial
/// membership, and the 10k-arrival structure) happens outside the timed
/// region, like the static scenarios' `NetworkBuilder`. The epoch loop
/// is timed in a single pass: the structure evolves with motion, so
/// repeated passes over one instance would drift counters, and
/// rebuilding per pass would time the build, not the maintenance.
fn run_mobility_bcast(opts: &PerfOptions) -> ScenarioResult {
    use dsnet_cluster::NodeStatus;
    use dsnet_mobility::SparseMotion;

    let (n, epochs): (usize, u64) = if opts.quick {
        (2_000, 10)
    } else {
        (10_000, 48)
    };
    let movers = 1usize;
    let scenario_seed = derive_seed(11, (n as u64) << 20);
    // Density 10 (vs the static scenarios' 5): a denser field keeps the
    // backbone share low, so member-leaf movers — the patch's target
    // regime — are the common case rather than a coin flip.
    let side = (n as f64 / 10.0).sqrt();
    let d = Deployment::generate(DeploymentConfig::paper_field(side, n, scenario_seed));
    let inner = RandomWaypoint::new(
        d.positions.clone(),
        d.config.region,
        // Pedestrian speeds, never pausing: slow enough that each epoch's
        // dirty closure stays small, restless enough that every epoch
        // bumps the structure version (a paused mover would make both
        // paths serve the probe from cache, diluting the comparison).
        WaypointParams {
            v_min: 0.01,
            v_max: 0.03,
            pause_epochs: 0,
        },
        derive_seed(scenario_seed, 0x6D0B),
    );

    // Bootstrap build: learn which nodes the initial structure makes
    // member leaves, then pick the mobile minority from them, spread
    // evenly across the arrival order.
    let mobile: Vec<usize> = {
        let boot = MobileNetwork::new(&d, Box::new(inner.clone()))
            .expect("incremental deployments arrive connected");
        let members: Vec<usize> = (0..n)
            .filter(|&i| boot.net().status(boot.node_of(i)) == NodeStatus::PureMember)
            .collect();
        assert!(
            members.len() >= movers,
            "field too small for {movers} movers"
        );
        (0..movers)
            .map(|j| members[members.len() * (2 * j + 1) / (2 * movers)])
            .collect()
    };

    let model = SparseMotion::new(inner, &mobile);
    let mut mob =
        MobileNetwork::new(&d, Box::new(model)).expect("incremental deployments arrive connected");
    let cfg = MobilityConfig {
        broadcast_every: 1,
        probe_channels: 2,
        ..MobilityConfig::default()
    };
    let start = Instant::now();
    let report = mob
        .run(epochs, &cfg)
        .expect("maintenance preserves the paper's invariants");
    let secs = start.elapsed().as_secs_f64();
    let samples = report.broadcast_samples();
    let (mut rounds, mut delivered, mut targets) = (0u64, 0u64, 0u64);
    for s in &samples {
        rounds += s.rounds as u64;
        delivered += s.delivered as u64;
        targets += s.targets as u64;
    }
    let breakdown = breakdown_of(&report);
    let probe_secs = breakdown.probe_ms / 1e3;
    ScenarioResult {
        name: "mobility_bcast_10k",
        nodes: n as u64,
        reps: samples.len() as u64,
        rounds,
        delivered,
        targets,
        wall_ms: secs * 1e3,
        rounds_per_sec: if probe_secs > 0.0 {
            rounds as f64 / probe_secs
        } else {
            0.0
        },
        maintenance: Some(breakdown),
        server: None,
    }
}

fn run_campaign_scenario(
    name: &'static str,
    nodes: u64,
    spec: &CampaignSpec,
    opts: &PerfOptions,
) -> ScenarioResult {
    let mut reps = 0;
    let r = best_of(name, nodes, 0, passes(opts), || {
        let result = campaign::run(spec, opts.threads, None);
        reps = result.records.len() as u64;
        let (mut rounds, mut delivered, mut targets) = (0u64, 0u64, 0u64);
        for rec in &result.records {
            rounds += rec.rounds;
            delivered += rec.delivered;
            targets += rec.targets;
        }
        (rounds, delivered, targets)
    });
    ScenarioResult { reps, ..r }
}

/// Timing passes per scenario. Full runs time best-of-5: the minimum
/// wall-clock is far more stable under scheduler/frequency noise than a
/// single sample, which matters for a committed 15% regression gate.
/// Quick runs take one pass — they exist for the determinism pin, not
/// for timing.
fn passes(opts: &PerfOptions) -> u32 {
    if opts.quick {
        1
    } else {
        5
    }
}

/// Run the workload `passes` times, assert the deterministic counters
/// never drift between passes, and keep the fastest wall-clock.
fn best_of(
    name: &'static str,
    nodes: u64,
    reps: u64,
    passes: u32,
    mut work: impl FnMut() -> (u64, u64, u64),
) -> ScenarioResult {
    let mut counters = None;
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        let c = work();
        let secs = start.elapsed().as_secs_f64();
        match counters {
            None => counters = Some(c),
            Some(prev) => assert_eq!(
                prev, c,
                "{name}: deterministic counters drifted between timing passes"
            ),
        }
        if secs < best {
            best = secs;
        }
    }
    let (rounds, delivered, targets) = counters.expect("at least one pass");
    ScenarioResult {
        name,
        nodes,
        reps,
        rounds,
        delivered,
        targets,
        wall_ms: best * 1e3,
        rounds_per_sec: if best > 0.0 {
            rounds as f64 / best
        } else {
            0.0
        },
        maintenance: None,
        server: None,
    }
}

/// Render the ledger as pretty-printed JSON (one key per line, stable
/// order).  With `include_timing = false` the machine-dependent fields
/// (`threads`, `peak_rss_kb` and every timing row of the field table) are
/// omitted — the remainder must be byte-identical for any `--threads`
/// value.
pub fn render_ledger(l: &Ledger, include_timing: bool) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{}\",", l.schema);
    let _ = writeln!(s, "  \"date\": \"{}\",", l.date);
    let _ = writeln!(s, "  \"quick\": {},", l.quick);
    if include_timing {
        let _ = writeln!(s, "  \"threads\": {},", l.threads);
        let _ = writeln!(s, "  \"peak_rss_kb\": {},", l.peak_rss_kb);
    }
    s.push_str("  \"scenarios\": [\n");
    for (i, sc) in l.scenarios.iter().enumerate() {
        // `name` always leads, so every later field opens with the
        // separator that ends the line before it.
        let _ = write!(s, "    {{\n      \"name\": \"{}\"", sc.name);
        for &(key, kind) in FIELDS {
            let value = match kind {
                Counter(get) => get(sc).map(|v| v.to_string()),
                Timing(places, get) if include_timing => get(sc).map(|v| format!("{v:.places$}")),
                Histogram(get) if include_timing => get(sc).map(|buckets| {
                    let buckets: Vec<String> = buckets.iter().map(u64::to_string).collect();
                    format!("[{}]", buckets.join(", "))
                }),
                Timing(..) | Histogram(_) => None,
            };
            if let Some(value) = value {
                let _ = write!(s, ",\n      \"{key}\": {value}");
            }
        }
        s.push_str(if i + 1 < l.scenarios.len() {
            "\n    },\n"
        } else {
            "\n    }\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Outcome of comparing a fresh ledger against a committed baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comparison {
    /// Human-readable per-scenario notes (always populated).
    pub notes: Vec<String>,
    /// Failures: counter mismatches or throughput regressions beyond the
    /// allowed fraction.  Empty means the gate passes.
    pub failures: Vec<String>,
}

impl Comparison {
    /// Whether the regression gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare a freshly-run [`Ledger`] against a committed baseline (the
/// JSON produced by [`render_ledger`] with timing included).
///
/// Deterministic counters must match *exactly* — any drift means the
/// simulation changed behaviour, which is a correctness regression no
/// matter how fast it runs — and every counter the fresh ledger carries
/// must be in the baseline.  `rounds_per_sec` may drift downward by at
/// most `max_regress` (e.g. `0.15` = 15%); improvements always pass.
/// At `max_regress = 1.0` no rate can fail (a ratio is never negative),
/// so the comparison checks the counters alone.
pub fn compare(baseline_json: &str, fresh: &Ledger, max_regress: f64) -> Comparison {
    let mut notes = Vec::new();
    let mut failures = Vec::new();
    let Some((header, base)) = parse_ledger(baseline_json) else {
        failures.push("baseline is not a recognisable dsnet-bench ledger".into());
        return Comparison { notes, failures };
    };
    if header["schema"] != fresh.schema {
        failures.push(format!(
            "schema mismatch: baseline {} vs fresh {}",
            header["schema"], fresh.schema
        ));
    }
    let quick = header.get("quick") == Some(&"true");
    if quick != fresh.quick {
        failures.push(format!(
            "suite-size mismatch: baseline quick={} vs fresh quick={} (only like-for-like ledgers compare)",
            quick, fresh.quick
        ));
        return Comparison { notes, failures };
    }
    for sc in &fresh.scenarios {
        let Some(b) = base.iter().find(|b| b["name"] == sc.name) else {
            failures.push(format!("scenario {} missing from baseline", sc.name));
            continue;
        };
        for &(key, kind) in FIELDS {
            let Counter(get) = kind else { continue };
            let Some(got) = get(sc) else { continue };
            match b.get(key) {
                None => failures.push(format!(
                    "{}: deterministic counter `{key}` missing from baseline",
                    sc.name
                )),
                Some(want) if want.parse() != Ok(got) => failures.push(format!(
                    "{}: deterministic counter `{key}` drifted: baseline {want}, fresh {got}",
                    sc.name
                )),
                Some(_) => {}
            }
        }
        let base_rate: f64 = b.get(RATE_KEY).and_then(|v| v.parse().ok()).unwrap_or(0.0);
        if base_rate > 0.0 {
            let ratio = sc.rounds_per_sec / base_rate;
            notes.push(format!(
                "{}: {:.0} rounds/s vs baseline {:.0} ({:+.1}%)",
                sc.name,
                sc.rounds_per_sec,
                base_rate,
                (ratio - 1.0) * 100.0
            ));
            if ratio < 1.0 - max_regress {
                failures.push(format!(
                    "{}: throughput regressed {:.1}% (limit {:.0}%): {:.0} rounds/s vs baseline {:.0}",
                    sc.name,
                    (1.0 - ratio) * 100.0,
                    max_regress * 100.0,
                    sc.rounds_per_sec,
                    base_rate
                ));
            }
        }
    }
    for b in &base {
        if !fresh.scenarios.iter().any(|sc| sc.name == b["name"]) {
            failures.push(format!("scenario {} missing from fresh run", b["name"]));
        }
    }
    Comparison { notes, failures }
}

/// One object of a rendered ledger: `"key": value` pairs with the raw
/// value text (string values unquoted).
type Object<'a> = BTreeMap<&'a str, &'a str>;

/// Minimal line-oriented parser for the exact shape [`render_ledger`]
/// emits (one `"key": value` pair per line).  Not a general JSON parser.
/// Returns the header object and one object per scenario (each holding
/// its `name`), or `None` when the document has no schema or no
/// scenarios.
fn parse_ledger(doc: &str) -> Option<(Object<'_>, Vec<Object<'_>>)> {
    let mut header = Object::new();
    let mut scenarios = Vec::new();
    let mut current: Option<Object<'_>> = None;
    for line in doc.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            if line == "}" {
                scenarios.extend(current.take());
            }
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim().trim_matches('"');
        if key == "name" {
            scenarios.extend(current.take());
            current = Some(Object::new());
        }
        current.as_mut().unwrap_or(&mut header).insert(key, value);
    }
    scenarios.extend(current);
    if !header.contains_key("schema") || scenarios.is_empty() {
        return None;
    }
    Some((header, scenarios))
}

/// Today's civil date in UTC as `YYYY-MM-DD`, derived from the system
/// clock (no external time crates).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch → (year, month, day), Gregorian (Hinnant's
/// `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Peak resident set size of this process in KiB, from
/// `/proc/self/status` (`VmHWM`); 0 where procfs is unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ledger() -> Ledger {
        Ledger {
            schema: SCHEMA,
            date: "2026-08-07".into(),
            quick: true,
            threads: 2,
            peak_rss_kb: 4096,
            scenarios: vec![
                ScenarioResult {
                    name: "static_cff",
                    nodes: 120,
                    reps: 20,
                    rounds: 1_000,
                    delivered: 2_380,
                    targets: 2_380,
                    wall_ms: 12.5,
                    rounds_per_sec: 80_000.0,
                    maintenance: None,
                    server: None,
                },
                ScenarioResult {
                    name: "static_dfo",
                    nodes: 120,
                    reps: 5,
                    rounds: 3_000,
                    delivered: 595,
                    targets: 595,
                    wall_ms: 30.0,
                    rounds_per_sec: 100_000.0,
                    maintenance: None,
                    server: None,
                },
            ],
        }
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let l = sample_ledger();
        let doc = render_ledger(&l, true);
        let (header, scenarios) = parse_ledger(&doc).expect("self-rendered ledger parses");
        assert_eq!(header["schema"], SCHEMA);
        assert_eq!(header["quick"], "true");
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0]["name"], "static_cff");
        assert_eq!(scenarios[0]["rounds"], "1000");
        assert_eq!(scenarios[1]["targets"], "595");
        assert_eq!(scenarios[1][RATE_KEY], "100000.0");
    }

    #[test]
    fn render_without_timing_omits_machine_fields() {
        let doc = render_ledger(&sample_ledger(), false);
        for field in ["threads", "peak_rss_kb", "wall_ms", "rounds_per_sec"] {
            assert!(
                !doc.contains(field),
                "{field} leaked into timing-free render"
            );
        }
        assert!(doc.contains("\"rounds\": 1000"));
    }

    #[test]
    fn compare_passes_on_identical_ledger() {
        let l = sample_ledger();
        let doc = render_ledger(&l, true);
        let c = compare(&doc, &l, 0.15);
        assert!(c.passed(), "failures: {:?}", c.failures);
        assert_eq!(c.notes.len(), 2);
    }

    #[test]
    fn compare_fails_on_counter_drift_and_regression() {
        let base = sample_ledger();
        let doc = render_ledger(&base, true);

        let mut drifted = base.clone();
        drifted.scenarios[0].rounds += 1;
        let c = compare(&doc, &drifted, 0.15);
        assert!(!c.passed());
        assert!(c.failures[0].contains("rounds"), "{:?}", c.failures);

        let mut slow = base.clone();
        slow.scenarios[1].rounds_per_sec = 50_000.0; // −50%
        let c = compare(&doc, &slow, 0.15);
        assert!(!c.passed());
        assert!(
            c.failures.iter().any(|f| f.contains("regressed")),
            "{:?}",
            c.failures
        );

        // At `max_regress = 1.0` only the counters are compared: the slow
        // ledger passes, the drifted one still fails.
        assert!(compare(&doc, &slow, 1.0).passed());
        assert!(!compare(&doc, &drifted, 1.0).passed());

        // A 10% dip stays inside the 15% budget.
        let mut ok = base.clone();
        ok.scenarios[1].rounds_per_sec = 90_000.0;
        assert!(compare(&doc, &ok, 0.15).passed());

        // Improvements always pass.
        let mut fast = base.clone();
        fast.scenarios[0].rounds_per_sec = 200_000.0;
        assert!(compare(&doc, &fast, 0.15).passed());

        // A scenario on one side only fails, in either direction.
        let mut grown = base.clone();
        grown.scenarios.push(mobility_scenario());
        let c = compare(&doc, &grown, 0.15);
        assert!(
            c.failures
                .iter()
                .any(|f| f.contains("mobility_100ep missing from baseline")),
            "{:?}",
            c.failures
        );
        let mut shrunk = base;
        shrunk.scenarios.pop();
        let c = compare(&doc, &shrunk, 0.15);
        assert!(
            c.failures
                .iter()
                .any(|f| f.contains("static_dfo missing from fresh run")),
            "{:?}",
            c.failures
        );
    }

    fn mobility_scenario() -> ScenarioResult {
        ScenarioResult {
            name: "mobility_100ep",
            nodes: 120,
            reps: 3,
            rounds: 159,
            delivered: 360,
            targets: 360,
            wall_ms: 125.0,
            rounds_per_sec: 1_270.0,
            maintenance: Some(MaintenanceBreakdown {
                reconfigs: 1_818,
                rehomed: 17_513,
                edge_events: 2_617,
                slot_churn: 4_000,
                audit_scope: 9_416,
                full_audits: 0,
                cache_hits: 3,
                cache_misses: 1,
                knowledge_patches: 1,
                knowledge_scope: 42,
                knowledge_fallbacks: 0,
                probe_ms: 4.2,
                diff_ms: 7.0,
                repair_ms: 29.0,
                slots_ms: 0.3,
                audit_ms: 2.8,
            }),
            server: None,
        }
    }

    fn serve_scenario() -> ScenarioResult {
        ScenarioResult {
            name: "serve_sessions",
            nodes: 24,
            reps: 600,
            rounds: 52_000,
            delivered: 80_000,
            targets: 80_000,
            wall_ms: 2_500.0,
            rounds_per_sec: 20_800.0,
            maintenance: None,
            server: Some(ServeBreakdown {
                sessions: 600,
                commands: 4_200,
                client_threads: 8,
                sessions_per_sec: 240.0,
                cmd_p50_us: 310.0,
                cmd_p99_us: 2_150.0,
                cmd_p999_us: 4_800.0,
                cmd_hist_us: vec![0, 0, 0, 0, 0, 12, 480, 2_900, 760, 48],
            }),
        }
    }

    #[test]
    fn serve_fields_roundtrip_and_gate_exactly() {
        let mut l = sample_ledger();
        l.scenarios.push(serve_scenario());
        let doc = render_ledger(&l, true);
        let (_, scenarios) = parse_ledger(&doc).expect("ledger with serve scenario parses");
        assert_eq!(scenarios[2]["serve_sessions"], "600");
        assert_eq!(scenarios[2]["serve_commands"], "4200");
        assert_eq!(scenarios[2]["serve_client_threads"], "8");
        assert!(compare(&doc, &l, 0.15).passed());

        // Counter drift is a hard failure.
        let mut drifted = l.clone();
        drifted.scenarios[2].server.as_mut().unwrap().commands += 1;
        let c = compare(&doc, &drifted, 0.15);
        assert!(
            c.failures.iter().any(|f| f.contains("serve_commands")),
            "{:?}",
            c.failures
        );

        // Latency/rate fields are timing: absent from the deterministic
        // render, present in the full one.
        let bare = render_ledger(&l, false);
        assert!(bare.contains("serve_sessions\": 600"));
        assert!(!bare.contains("serve_cmd_p50_us"));
        assert!(!bare.contains("serve_sessions_per_sec"));
        assert!(!bare.contains("serve_cmd_p999_us"));
        assert!(!bare.contains("serve_cmd_hist_us"));
        assert!(doc.contains("\"serve_cmd_p999_us\": 4800.0"));
        assert!(doc.contains("\"serve_cmd_hist_us\": [0, 0, 0, 0, 0, 12, 480, 2900, 760, 48]"));
    }

    #[test]
    fn maintenance_fields_roundtrip_and_gate_exactly() {
        let mut l = sample_ledger();
        l.scenarios.push(mobility_scenario());
        let doc = render_ledger(&l, true);
        let (_, scenarios) = parse_ledger(&doc).expect("v2 ledger parses");
        assert_eq!(scenarios[2]["maint_reconfigs"], "1818");
        assert_eq!(scenarios[2]["maint_audit_scope"], "9416");
        assert_eq!(scenarios[2]["maint_cache_misses"], "1");
        assert_eq!(scenarios[2]["maint_knowledge_patches"], "1");
        assert_eq!(scenarios[2]["maint_knowledge_scope"], "42");
        assert!(compare(&doc, &l, 0.15).passed());

        // Any maintenance-counter drift is a hard failure: it means the
        // maintenance semantics changed, not just their speed.
        let mut drifted = l.clone();
        drifted.scenarios[2].maintenance.as_mut().unwrap().rehomed += 1;
        let c = compare(&doc, &drifted, 0.15);
        assert!(
            c.failures.iter().any(|f| f.contains("maint_rehomed")),
            "{:?}",
            c.failures
        );

        // The knowledge-patch counters gate exactly when the baseline
        // carries them.
        let mut patched = l.clone();
        patched.scenarios[2]
            .maintenance
            .as_mut()
            .unwrap()
            .knowledge_patches += 1;
        let c = compare(&doc, &patched, 0.15);
        assert!(
            c.failures
                .iter()
                .any(|f| f.contains("maint_knowledge_patches")),
            "{:?}",
            c.failures
        );

        // A counter the fresh ledger carries and the baseline lacks
        // fails: the baseline must be regenerated to gate it.
        let stale: String = doc
            .lines()
            .filter(|line| !line.contains("maint_knowledge_scope"))
            .map(|line| format!("{line}\n"))
            .collect();
        let c = compare(&stale, &l, 0.15);
        assert!(
            c.failures
                .iter()
                .any(|f| f.contains("`maint_knowledge_scope` missing from baseline")),
            "{:?}",
            c.failures
        );

        // The timing halves of the breakdown are machine-dependent and
        // must not leak into the determinism render.
        let bare = render_ledger(&l, false);
        assert!(bare.contains("maint_reconfigs"));
        assert!(!bare.contains("maint_diff_ms"));
    }

    /// One static, one mobility and one serve scenario, with fractional
    /// timings that exercise every field's rounding.
    fn golden_ledger() -> Ledger {
        let mut static_cff = sample_ledger().scenarios[0].clone();
        static_cff.wall_ms = 96.1984;
        static_cff.rounds_per_sec = 449_071.94;
        let mut mobility = mobility_scenario();
        mobility.wall_ms = 136.4896;
        mobility.rounds_per_sec = 1_164.86;
        let m = mobility.maintenance.as_mut().unwrap();
        m.probe_ms = 0.8372;
        m.audit_ms = 3.5396;
        let mut serve = serve_scenario();
        let sv = serve.server.as_mut().unwrap();
        sv.sessions_per_sec = 2_332.44;
        sv.cmd_p50_us = 422.0;
        sv.cmd_p99_us = 904.06;
        Ledger {
            schema: SCHEMA,
            date: "2026-08-08".into(),
            quick: false,
            threads: 2,
            peak_rss_kb: 409_152,
            scenarios: vec![static_cff, mobility, serve],
        }
    }

    /// The exact bytes of both renders of a fixed ledger: a changed key,
    /// key order or number format shows up here.
    #[test]
    fn render_matches_golden_bytes() {
        let l = golden_ledger();
        assert_eq!(render_ledger(&l, true), GOLDEN_TIMED);
        assert_eq!(render_ledger(&l, false), GOLDEN_BARE);
    }

    const GOLDEN_TIMED: &str = r#"{
  "schema": "dsnet-bench-ledger/2",
  "date": "2026-08-08",
  "quick": false,
  "threads": 2,
  "peak_rss_kb": 409152,
  "scenarios": [
    {
      "name": "static_cff",
      "nodes": 120,
      "reps": 20,
      "rounds": 1000,
      "delivered": 2380,
      "targets": 2380,
      "wall_ms": 96.198,
      "rounds_per_sec": 449071.9
    },
    {
      "name": "mobility_100ep",
      "nodes": 120,
      "reps": 3,
      "rounds": 159,
      "delivered": 360,
      "targets": 360,
      "maint_reconfigs": 1818,
      "maint_rehomed": 17513,
      "maint_edge_events": 2617,
      "maint_slot_churn": 4000,
      "maint_audit_scope": 9416,
      "maint_full_audits": 0,
      "maint_cache_hits": 3,
      "maint_cache_misses": 1,
      "maint_knowledge_patches": 1,
      "maint_knowledge_scope": 42,
      "maint_knowledge_fallbacks": 0,
      "maint_probe_ms": 0.837,
      "maint_diff_ms": 7.000,
      "maint_repair_ms": 29.000,
      "maint_slots_ms": 0.300,
      "maint_audit_ms": 3.540,
      "wall_ms": 136.490,
      "rounds_per_sec": 1164.9
    },
    {
      "name": "serve_sessions",
      "nodes": 24,
      "reps": 600,
      "rounds": 52000,
      "delivered": 80000,
      "targets": 80000,
      "serve_sessions": 600,
      "serve_commands": 4200,
      "serve_client_threads": 8,
      "serve_sessions_per_sec": 2332.4,
      "serve_cmd_p50_us": 422.0,
      "serve_cmd_p99_us": 904.1,
      "serve_cmd_p999_us": 4800.0,
      "serve_cmd_hist_us": [0, 0, 0, 0, 0, 12, 480, 2900, 760, 48],
      "wall_ms": 2500.000,
      "rounds_per_sec": 20800.0
    }
  ]
}
"#;

    const GOLDEN_BARE: &str = r#"{
  "schema": "dsnet-bench-ledger/2",
  "date": "2026-08-08",
  "quick": false,
  "scenarios": [
    {
      "name": "static_cff",
      "nodes": 120,
      "reps": 20,
      "rounds": 1000,
      "delivered": 2380,
      "targets": 2380
    },
    {
      "name": "mobility_100ep",
      "nodes": 120,
      "reps": 3,
      "rounds": 159,
      "delivered": 360,
      "targets": 360,
      "maint_reconfigs": 1818,
      "maint_rehomed": 17513,
      "maint_edge_events": 2617,
      "maint_slot_churn": 4000,
      "maint_audit_scope": 9416,
      "maint_full_audits": 0,
      "maint_cache_hits": 3,
      "maint_cache_misses": 1,
      "maint_knowledge_patches": 1,
      "maint_knowledge_scope": 42,
      "maint_knowledge_fallbacks": 0
    },
    {
      "name": "serve_sessions",
      "nodes": 24,
      "reps": 600,
      "rounds": 52000,
      "delivered": 80000,
      "targets": 80000,
      "serve_sessions": 600,
      "serve_commands": 4200,
      "serve_client_threads": 8
    }
  ]
}
"#;

    /// The newest committed baseline carries exactly the keys the field
    /// table lists for each scenario's kind, so a row added to the table
    /// without regenerating the baseline fails here, not only in the
    /// perf job.
    #[test]
    fn committed_baseline_matches_the_field_table() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let newest = std::fs::read_dir(root)
            .expect("repository root")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
            .max()
            .expect("a committed BENCH_*.json baseline");
        let doc = std::fs::read_to_string(format!("{root}/{newest}")).expect("read baseline");
        let (header, scenarios) = parse_ledger(&doc).expect("baseline parses");
        assert_eq!(header["schema"], SCHEMA, "{newest}");
        for b in &scenarios {
            let name = b["name"];
            let kind = if name.starts_with("mobility_") {
                mobility_scenario()
            } else if name.starts_with("serve_") {
                serve_scenario()
            } else {
                sample_ledger().scenarios[0].clone()
            };
            let mut want: Vec<&str> = FIELDS
                .iter()
                .filter(|(_, k)| match *k {
                    Counter(get) => get(&kind).is_some(),
                    Timing(_, get) => get(&kind).is_some(),
                    Histogram(get) => get(&kind).is_some(),
                })
                .map(|&(key, _)| key)
                .chain(["name"])
                .collect();
            want.sort_unstable();
            let got: Vec<&str> = b.keys().copied().collect();
            assert_eq!(got, want, "{newest}: keys of scenario {name}");
        }
    }

    #[test]
    fn compare_rejects_quick_vs_full() {
        let quick = sample_ledger();
        let doc = render_ledger(&quick, true);
        let mut full = quick.clone();
        full.quick = false;
        let c = compare(&doc, &full, 0.15);
        assert!(c.failures.iter().any(|f| f.contains("suite-size")));
    }

    #[test]
    fn civil_date_is_gregorian() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(20_672), (2026, 8, 7));
    }

    /// Regression pin over one quick suite on 1 thread and one on 2: the
    /// roster is fixed and does non-trivial work, the timing-free renders
    /// are identical (and really timing-free), and a fresh ledger passes
    /// the gate against its own render.
    #[test]
    fn quick_ledger_is_thread_invariant_and_passes_its_own_gate() {
        let quick = |threads| {
            run_suite(&PerfOptions {
                quick: true,
                threads,
                date: Some("2026-08-07".into()),
            })
        };
        let (one, two) = (quick(1), quick(2));
        let doc = render_ledger(&one, false);
        assert_eq!(
            doc,
            render_ledger(&two, false),
            "deterministic ledger fields drifted with --threads"
        );
        for field in ["wall_ms", "rounds_per_sec", "peak_rss_kb", "threads"] {
            assert!(!doc.contains(field), "{field} in timing-free render");
        }

        assert_eq!(one.schema, SCHEMA);
        let names: Vec<&str> = one.scenarios.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "static_cff",
                "static_cff_10k",
                "static_cff_100k",
                "static_dfo",
                "lossy_rcff_repair",
                "mobility_100ep",
                "mobility_400ep",
                "mobility_bcast_10k"
            ]
        );
        for s in &one.scenarios {
            assert!(s.rounds > 0, "{} simulated no rounds", s.name);
            assert!(s.targets > 0, "{} had no targets", s.name);
            assert!(s.delivered <= s.targets, "{} over-delivered", s.name);
        }

        let cmp = compare(&render_ledger(&two, true), &two, 0.15);
        assert!(cmp.passed(), "failures: {:?}", cmp.failures);
        assert_eq!(cmp.notes.len(), two.scenarios.len());
    }
}
