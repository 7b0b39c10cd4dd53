//! `bcast_10k`: improved-CFF broadcasts (k = 1) from the sink of a
//! static 10k-node, density-5 field, with the knowledge snapshot warm in
//! a `KnowledgeCache`, so every operation is a cache hit plus one engine
//! run.
//!
//! The field has 10k nodes, not the 100k of the repository's largest
//! scale point: on a shared 2-vCPU VM the median 100k broadcast (a
//! ~170 MB working set) took 72 ms in one run and 107 ms in the next, a
//! minute apart on the same seed, and the quartile spread of ten runs
//! went past 25% in two of three tries (see README.md).
//!
//! The timed operations run the sequential engine (`RunConfig::threads =
//! 1`). The sharded `run_parallel` engine (64 cells, 2 threads) runs once
//! after the set-ups, untimed, where its outputs must equal the
//! sequential engine's, and traced runs time it separately
//! (`radio.parallel_ms`,
//! `radio.cpu_util`): its two workers and the coordinating thread meet at
//! three barriers per round, which on a 2-vCPU VM makes it slower than
//! the sequential engine and, under steal time, swung its rate by 2×
//! between back-to-back runs, which no bound can hold (see README.md).
//!
//! Set-up (deployment, unit-disk graph, 10k arrivals, first knowledge
//! build, shard plan, one warm-up broadcast) is repeated and its median
//! reported; the load phase reuses the last set-up.

use crate::report::{end_to_end, peak_rss_mib, ratio, Layers, Load, Report, Split};
use crate::trace::{process_cpu_ns, Tracer};
use crate::{timed, traced_op, Params, Size};
use dsnet::cluster::{ClusterNet, ParentRule, SlotMode};
use dsnet::geom::rng::derive_seed;
use dsnet::geom::{Deployment, DeploymentConfig};
use dsnet::graph::{unit_disk, NodeId};
use dsnet::protocols::runner::{run_improved_with, RunConfig};
use dsnet::protocols::{BroadcastOutcome, KnowledgeCache};
use dsnet::radio::ShardPlan;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "bcast_10k";
/// Tail percentile reported as `op_tail_ms`: p90. p99 has enough samples
/// beyond it (30-74 per 20-s run) but its quartile spread across ten runs
/// reached 37%, against 29.5% for p90 (see README.md).
pub const TAIL_PCT: f64 = 90.0;
/// Nodes per unit² of field.
const DENSITY: f64 = 5.0;
/// Shard cells of the delivery partition.
const CELLS: usize = 64;
/// Worker threads of the parallel engine.
const PARALLEL_THREADS: usize = 2;
/// Parallel-engine broadcasts a traced run times.
const PARALLEL_PROBES: usize = 20;

fn nodes(size: Size) -> usize {
    match size {
        Size::Full => 10_000,
        Size::Tiny => 2_000,
    }
}

fn setups(size: Size) -> usize {
    match size {
        Size::Full => 11,
        Size::Tiny => 1,
    }
}

/// A built field ready for broadcasts.
struct Field {
    net: ClusterNet,
    cache: KnowledgeCache,
    parallel: RunConfig,
    arrivals: usize,
    warm: BroadcastOutcome,
}

/// The timed operations' engine settings.
fn sequential() -> RunConfig {
    RunConfig {
        record_trace: false,
        ..RunConfig::default()
    }
}

/// Deterministic outputs of one broadcast.
fn outputs(o: &BroadcastOutcome) -> (u64, u64, u64, u64, u64) {
    (
        o.rounds,
        o.delivered as u64,
        o.targets as u64,
        o.bound,
        o.max_awake(),
    )
}

/// The spatial partition `SensorNetwork::shard_plan` builds: a k × k grid
/// with k² ≥ `cells`, row-major cells, ids ascending within a cell.
fn shard_plan(d: &Deployment, net: &ClusterNet, cells: usize) -> Arc<ShardPlan> {
    let region = &d.config.region;
    let k = (cells as f64).sqrt().ceil() as usize;
    let (cw, ch) = (region.width() / k as f64, region.height() / k as f64);
    let mut grid: Vec<Vec<NodeId>> = vec![Vec::new(); k * k];
    for u in net.graph().nodes() {
        let p = d.positions[u.index()];
        let cx = ((p.x / cw).floor() as i64).clamp(0, k as i64 - 1) as usize;
        let cy = ((p.y / ch).floor() as i64).clamp(0, k as i64 - 1) as usize;
        grid[cy * k + cx].push(u);
    }
    Arc::new(ShardPlan::from_cells(grid))
}

fn setup(seed: u64, n: usize, tr: &mut Tracer) -> Field {
    let side = (n as f64 / DENSITY).sqrt();
    let cfg = DeploymentConfig::paper_field(side, n, derive_seed(seed, 0xB100));
    let d = tr.span("geom.deploy", || Deployment::generate(cfg));
    let g = tr.span("graph.unit_disk", || unit_disk::graph_of_deployment(&d));
    let (net, reports) = tr
        .span("cluster.build", || {
            ClusterNet::build_by_arrival(&g, ParentRule::default(), SlotMode::default())
        })
        .expect("incrementally connected deployments always build");
    drop(g);
    let cache = KnowledgeCache::new();
    tr.span("knowledge.build", || cache.get(&net));
    let plan = tr.span("radio.shard_plan", || shard_plan(&d, &net, CELLS));
    let parallel = RunConfig {
        record_trace: false,
        shards: Some(plan),
        threads: PARALLEL_THREADS,
        ..RunConfig::default()
    };
    let warm = tr.span("runner.warmup", || {
        run_improved_with(&net, &cache.get(&net), net.root(), &sequential())
    });
    Field {
        net,
        cache,
        parallel,
        arrivals: reports.len(),
        warm,
    }
}

/// Run the workload.
pub fn run(p: &Params) -> Report {
    let mut r = Report::new(NAME);
    let epoch = Instant::now();
    let n = nodes(p.size);

    let mut setup_tr = Tracer::new(p.trace, epoch);
    let mut setups_s = Vec::new();
    let mut field: Option<Field> = None;
    for _ in 0..setups(p.size) {
        let prev = field.take().map(|f| outputs(&f.warm));
        let (f, secs) = timed(|| setup(p.seed, n, &mut setup_tr));
        setups_s.push(secs);
        if let Some(prev) = prev {
            r.check("set-ups agree", prev == outputs(&f.warm), "");
        }
        field = Some(f);
    }
    let f = field.expect("at least one set-up");
    let reference = outputs(&f.warm);
    let parallel = outputs(&run_improved_with(
        &f.net,
        &f.cache.get(&f.net),
        f.net.root(),
        &f.parallel,
    ));
    r.check(
        "the parallel engine repeats the sequential engine's outputs",
        parallel == reference,
        format!("{parallel:?} vs {reference:?}"),
    );
    let cfg = sequential();

    let (mut mismatches, mut incomplete) = (0u64, 0u64);
    let (mut rounds, mut awake) = (0u64, 0u64);
    let mut tr = Tracer::new(false, epoch);
    let mut split = Split::default();
    let mut load = Load::default();
    let before = f.cache.full_stats();
    let window = Duration::from_secs_f64(p.seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        let op = load.lat_ns.len() as u64 + 1;
        let traced = traced_op(p, op);
        tr.begin_op(op, traced);
        let t0 = Instant::now();
        tr.enter("op");
        let k = tr.span("knowledge.get", || f.cache.get(&f.net));
        let out = tr.span("runner.run", || {
            run_improved_with(&f.net, &k, f.net.root(), &cfg)
        });
        tr.exit();
        let ns = t0.elapsed().as_nanos() as u64;
        load.lat_ns.push(ns);
        split.add(traced, ns);
        if !(out.completed() && out.rounds <= out.bound) {
            incomplete += 1;
        }
        if outputs(&out) != reference {
            mismatches += 1;
        }
        rounds += out.rounds;
        awake += out.max_awake();
    }
    load.wall_s = start.elapsed().as_secs_f64();
    let after = f.cache.full_stats();

    let ops = load.lat_ns.len() as u64;
    r.attempted = ops;
    r.failed = incomplete;
    r.check("operations completed", ops > 0, format!("{ops} broadcasts"));
    r.check(
        "Theorem 1: every broadcast completes within its round bound",
        incomplete == 0,
        format!("{incomplete} of {ops} did not"),
    );
    r.check(
        "every broadcast repeats the warm-up outputs",
        mismatches == 0,
        format!(
            "{mismatches} of {ops} differ from (rounds, delivered, targets, bound, max_awake) = {reference:?}"
        ),
    );
    let (rd, dl, tg, bd, aw) = reference;
    let observed = [
        ("rounds", rd),
        ("delivered", dl),
        ("targets", tg),
        ("bound", bd),
        ("max_awake", aw),
    ];
    r.check_pins(&observed, p.expected_pins(NAME).as_deref());

    if !p.trace {
        end_to_end(&mut r, &load, TAIL_PCT, &setups_s, peak_rss_mib());
        return r;
    }
    let summary = tr.summary();
    let setup_sum = setup_tr.summary();
    // The parallel engine, timed apart from the operations.
    let (mut par_ns, mut par_cpu_ns, mut par_drift) = (0u64, 0u64, 0u64);
    let k = f.cache.get(&f.net);
    for _ in 0..PARALLEL_PROBES {
        let (t0, cpu0) = (Instant::now(), process_cpu_ns());
        let out = run_improved_with(&f.net, &k, f.net.root(), &f.parallel);
        par_cpu_ns += process_cpu_ns() - cpu0;
        par_ns += t0.elapsed().as_nanos() as u64;
        par_drift += u64::from(outputs(&out) != reference);
    }
    r.check(
        "every parallel broadcast repeats the sequential outputs",
        par_drift == 0,
        format!("{par_drift} of {PARALLEL_PROBES} differ"),
    );
    let per_op = |v: u64| ratio(v as f64, ops as f64);
    let run_ns = summary.get("runner.run").total_ns as f64;
    let traced_rounds = rounds as f64 * ratio(split.traced as f64, ops as f64);
    let mut l = Layers::new();
    l.set("geom.deploy_ms", setup_sum.mean_ms("geom.deploy"));
    l.set("graph.unit_disk_ms", setup_sum.mean_ms("graph.unit_disk"));
    l.set("cluster.build_ms", setup_sum.mean_ms("cluster.build"));
    l.set("knowledge.build_ms", setup_sum.mean_ms("knowledge.build"));
    l.set("cluster.move_ins", f.arrivals as f64);
    l.set("knowledge.get_us", summary.mean_us("knowledge.get"));
    l.set("knowledge.hits", per_op(after.hits - before.hits));
    l.set("knowledge.misses", per_op(after.misses - before.misses));
    l.set("knowledge.patched", per_op(after.patched - before.patched));
    l.set(
        "knowledge.patched_scope",
        per_op(after.patched_scope - before.patched_scope),
    );
    l.set(
        "knowledge.fallbacks",
        per_op(after.fallbacks - before.fallbacks),
    );
    l.set(
        "knowledge.patched_share",
        ratio(
            (after.patched - before.patched) as f64,
            (after.misses - before.misses) as f64,
        ),
    );
    l.set("runner.run_ms", summary.mean_ms("runner.run"));
    l.set("radio.rounds", per_op(rounds));
    l.set("radio.rounds_per_s", ratio(traced_rounds, run_ns / 1e9));
    l.set(
        "radio.parallel_ms",
        par_ns as f64 / 1e6 / PARALLEL_PROBES as f64,
    );
    l.set(
        "radio.cpu_util",
        ratio(par_cpu_ns as f64, par_ns as f64 * PARALLEL_THREADS as f64),
    );
    l.set("radio.max_awake", per_op(awake));
    l.overhead(&split, 1);
    l.finish(&mut r, &summary);
    r
}
