//! `mobile_10k`: one `MobileNetwork::step` on a 10k-node, density-10
//! field followed by a 2-channel improved-CFF sink broadcast probe.
//!
//! Eight non-sink nodes are on the move at any time, each following
//! pedestrian-speed random-waypoint motion with no pauses; the rest of
//! the field stays put. The movers relay: every [`STINT`] epochs the
//! benchmark draws a fresh set by seed — six current pure members and two
//! current backbone nodes — so every stint mixes the knowledge patch path
//! (member moves dirty a few dozen nodes) with its full-rebuild fallback
//! (backbone moves re-home whole clusters), and a run averages over
//! hundreds of movers instead of hinging on the eight a seed first picks.
//!
//! The probe runs in this crate, not inside `step`, so the spans around
//! `KnowledgeCache::get` and `run_improved_with` are the benchmark's own.

use crate::report::{end_to_end, peak_rss_mib, ratio, Layers, Load, Report, Split};
use crate::trace::{process_cpu_ns, Tracer};
use crate::{timed, traced_op, Gen, Params, Size};
use dsnet::cluster::NodeStatus;
use dsnet::geom::rng::derive_seed;
use dsnet::geom::{Deployment, DeploymentConfig};
use dsnet::geom::{Point2, Region};
use dsnet::mobility::{AuditMode, EpochRecord, MobileNetwork, MobilityConfig, MobilityModel};
use dsnet::protocols::runner::{run_improved_with, RunConfig};
use dsnet::protocols::{BroadcastOutcome, KnowledgeCache};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "mobile_10k";
/// Tail percentile reported as `op_tail_ms` (about 900–1,900 operations
/// per 20-s run leave 9–19 samples beyond p99, too few in slow runs).
pub const TAIL_PCT: f64 = 90.0;
/// Nodes per unit² of field.
const DENSITY: f64 = 10.0;
/// Movers drawn from the pure members and from the (non-sink) backbone.
const MEMBER_MOVERS: usize = 6;
const BACKBONE_MOVERS: usize = 2;
/// Channels of the broadcast probe.
const PROBE_CHANNELS: u8 = 2;
/// Epochs a mover set stays on the move before the next set takes over.
pub const STINT: u64 = 10;
/// Pedestrian trip speeds, field units per epoch.
const SPEED: (f64, f64) = (0.01, 0.03);

fn nodes(size: Size) -> usize {
    match size {
        Size::Full => 10_000,
        Size::Tiny => 1_000,
    }
}

/// Epochs of one lap. Every lap deploys a fresh field from the seed and
/// the lap number and draws its own mover relay, so the run stays
/// stationary (mobility grows the id space, and with it the per-epoch
/// cost, the longer one field lives) while a run averages over several
/// fields and hundreds of movers instead of hinging on one of each. The
/// first lap's outputs are the pinned ones.
pub fn lap_epochs(size: Size) -> u64 {
    match size {
        Size::Full => 40,
        Size::Tiny => 20,
    }
}

/// A moving field and its probe state.
struct Field {
    mob: MobileNetwork,
    movers: Rc<RefCell<Movers>>,
    cache: KnowledgeCache,
}

fn step_cfg() -> MobilityConfig {
    MobilityConfig {
        check_invariants: true,
        broadcast_every: 0,
        probe_channels: PROBE_CHANNELS,
        audit: AuditMode::Dirty,
    }
}

fn probe_cfg() -> RunConfig {
    RunConfig {
        channels: PROBE_CHANNELS,
        record_trace: false,
        ..RunConfig::default()
    }
}

/// `count` distinct picks from `pool`, by seed.
fn draw(g: &mut Gen, pool: &[usize], count: usize) -> Vec<usize> {
    let mut pool = pool.to_vec();
    let mut out = Vec::with_capacity(count);
    while out.len() < count && !pool.is_empty() {
        let i = g.below(pool.len() as u64) as usize;
        out.push(pool.swap_remove(i));
    }
    out
}

/// A uniform value in `[lo, hi]` from a generator.
fn uniform(g: &mut Gen, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (g.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The movers of the current stint: node, waypoint, speed.
struct Movers {
    g: Gen,
    region: Region,
    active: Vec<(usize, Point2, f64)>,
}

impl Movers {
    fn waypoint(&mut self) -> Point2 {
        let (w, h) = (self.region.width(), self.region.height());
        Point2::new(uniform(&mut self.g, 0.0, w), uniform(&mut self.g, 0.0, h))
    }

    /// Hand the motion to `nodes`, each with a fresh trip.
    fn relay(&mut self, nodes: &[usize]) {
        self.active.clear();
        for &u in nodes {
            let wp = self.waypoint();
            let v = uniform(&mut self.g, SPEED.0, SPEED.1);
            self.active.push((u, wp, v));
        }
    }
}

/// Random-waypoint motion (no pauses) for the current stint's movers
/// only; the benchmark swaps the mover set between stints through the
/// shared [`Movers`].
struct Relay {
    positions: Vec<Point2>,
    region: Region,
    movers: Rc<RefCell<Movers>>,
}

impl MobilityModel for Relay {
    fn positions(&self) -> &[Point2] {
        &self.positions
    }

    fn step_into(&mut self, moved: &mut Vec<usize>) {
        moved.clear();
        let mut m = self.movers.borrow_mut();
        for k in 0..m.active.len() {
            let (u, wp, v) = m.active[k];
            let p = self.positions[u];
            let (dx, dy) = (wp.x - p.x, wp.y - p.y);
            let dist = (dx * dx + dy * dy).sqrt();
            self.positions[u] = if dist <= v {
                let next = m.waypoint();
                m.active[k].1 = next;
                wp
            } else {
                Point2::new(p.x + dx * v / dist, p.y + dy * v / dist)
            };
            moved.push(u);
        }
        moved.sort_unstable();
    }

    fn region(&self) -> Region {
        self.region
    }
}

/// Draw the next stint's movers by their current status.
fn relay_movers(mob: &MobileNetwork, movers: &RefCell<Movers>) {
    let (mut members, mut backbone) = (Vec::new(), Vec::new());
    for i in 1..mob.len() {
        match mob.net().status(mob.node_of(i)) {
            NodeStatus::PureMember => members.push(i),
            _ => backbone.push(i),
        }
    }
    let mut m = movers.borrow_mut();
    let mut picked = draw(&mut m.g, &members, MEMBER_MOVERS);
    picked.extend(draw(&mut m.g, &backbone, BACKBONE_MOVERS));
    m.relay(&picked);
}

fn setup(seed: u64, lap: u64, n: usize, tr: &mut Tracer) -> Field {
    let side = (n as f64 / DENSITY).sqrt();
    let cfg = DeploymentConfig::paper_field(side, n, derive_seed(seed, 0x10B1 + lap));
    let d = tr.span("geom.deploy", || Deployment::generate(cfg));
    let movers = Rc::new(RefCell::new(Movers {
        g: Gen::new(seed, 0x30E5 + lap),
        region: d.config.region,
        active: Vec::new(),
    }));
    let model = Relay {
        positions: d.positions.clone(),
        region: d.config.region,
        movers: Rc::clone(&movers),
    };
    let mob = tr
        .span("cluster.build", || MobileNetwork::new(&d, Box::new(model)))
        .expect("incrementally connected deployments arrive connected");
    let cache = KnowledgeCache::new();
    tr.span("knowledge.build", || cache.get(mob.net()));
    relay_movers(&mob, &movers);
    Field { mob, movers, cache }
}

/// Per-operation outputs summed over a window (and over the pinned
/// prefix).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Sums {
    ops: u64,
    moved: u64,
    edge_events: u64,
    reconfigs: u64,
    rehomed: u64,
    deferred: u64,
    slot_churn: u64,
    audit_scope: u64,
    diff_ns: u64,
    repair_ns: u64,
    slots_ns: u64,
    audit_ns: u64,
    hits: u64,
    misses: u64,
    patched: u64,
    patched_scope: u64,
    fallbacks: u64,
    rounds: u64,
    delivered: u64,
    targets: u64,
    awake: u64,
    run_cpu_ns: u64,
}

impl Sums {
    fn add(&mut self, rec: &EpochRecord, knowledge: [u64; 5], out: &BroadcastOutcome) {
        let t = &rec.timings;
        self.ops += 1;
        self.moved += rec.moved as u64;
        self.edge_events += (rec.edges_appeared + rec.edges_disappeared) as u64;
        self.reconfigs += rec.reconfigs as u64;
        self.rehomed += rec.rehomed as u64;
        self.deferred += rec.deferred as u64;
        self.slot_churn += rec.slot_churn as u64;
        self.audit_scope += t.audit_scope as u64;
        self.diff_ns += t.diff_ns;
        self.repair_ns += t.repair_ns;
        self.slots_ns += t.slots_ns;
        self.audit_ns += t.audit_ns;
        let [h, m, p, s, f] = knowledge;
        self.hits += h;
        self.misses += m;
        self.patched += p;
        self.patched_scope += s;
        self.fallbacks += f;
        self.rounds += out.rounds;
        self.delivered += out.delivered as u64;
        self.targets += out.targets as u64;
        self.awake += out.max_awake();
    }

    fn pins(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("reconfigs", self.reconfigs),
            ("rehomed", self.rehomed),
            ("slot_churn", self.slot_churn),
            ("patched", self.patched),
            ("fallbacks", self.fallbacks),
            ("rounds", self.rounds),
            ("delivered", self.delivered),
            ("targets", self.targets),
        ]
    }
}

/// Run the workload.
pub fn run(p: &Params) -> Report {
    let mut r = Report::new(NAME);
    let epoch = Instant::now();
    let n = nodes(p.size);
    let lap = lap_epochs(p.size);
    let (step, probe) = (step_cfg(), probe_cfg());

    let mut setup_tr = Tracer::new(p.trace, epoch);
    let mut setups_s = Vec::new();
    let mut tr = Tracer::new(false, epoch);
    let mut split = Split::default();
    let mut load = Load::default();
    let (mut total, mut first_lap, mut laps) = (Sums::default(), None, 0u64);
    let (mut incomplete, mut step_errors) = (0u64, Vec::new());
    let mut traced_rounds = 0u64;
    let window = Duration::from_secs_f64(p.seconds);
    // The load clock runs only while operations do: each lap's rebuild
    // is set-up, not load.
    let mut load_ns = 0u64;
    'laps: while load_ns < window.as_nanos() as u64 {
        let (mut f, secs) = timed(|| setup(p.seed, laps, n, &mut setup_tr));
        setups_s.push(secs);
        let mut lap_sums = Sums::default();
        let lap_start = Instant::now();
        for e in 0..lap {
            let now_ns = load_ns + lap_start.elapsed().as_nanos() as u64;
            if now_ns >= window.as_nanos() as u64 {
                break;
            }
            if e > 0 && e % STINT == 0 {
                relay_movers(&f.mob, &f.movers);
            }
            let op = total.ops + 1;
            let traced = traced_op(p, op);
            tr.begin_op(op, traced);
            let t0 = Instant::now();
            tr.enter("op");
            tr.enter("mobility.step");
            let rec = f.mob.step(&step);
            let step_span = tr.exit();
            let rec = match rec {
                Ok(rec) => rec,
                Err(e) => {
                    // The structure is no longer trustworthy: stop the load.
                    tr.exit();
                    step_errors.push(format!("{e:?}"));
                    break 'laps;
                }
            };
            let t = &rec.timings;
            tr.inner(step_span, "mobility.diff", t.diff_ns);
            tr.inner(step_span, "mobility.repair", t.repair_ns);
            tr.inner(step_span, "mobility.slots", t.slots_ns);
            tr.inner(step_span, "mobility.audit", t.audit_ns);
            let before = f.cache.full_stats();
            let k = tr.span("knowledge.get", || f.cache.get(f.mob.net()));
            let after = f.cache.full_stats();
            let cpu0 = if traced { process_cpu_ns() } else { 0 };
            let out = tr.span("runner.run", || {
                run_improved_with(f.mob.net(), &k, f.mob.net().root(), &probe)
            });
            if traced {
                total.run_cpu_ns += process_cpu_ns() - cpu0;
                traced_rounds += out.rounds;
            }
            tr.exit();
            let ns = t0.elapsed().as_nanos() as u64;
            load.lat_ns.push(ns);
            split.add(traced, ns);
            if !(out.completed() && out.rounds <= out.bound) {
                incomplete += 1;
            }
            let knowledge = [
                after.hits - before.hits,
                after.misses - before.misses,
                after.patched - before.patched,
                after.patched_scope - before.patched_scope,
                after.fallbacks - before.fallbacks,
            ];
            total.add(&rec, knowledge, &out);
            lap_sums.add(&rec, knowledge, &out);
        }
        load_ns += lap_start.elapsed().as_nanos() as u64;
        if laps == 0 && lap_sums.ops == lap {
            first_lap = Some(lap_sums.pins());
        }
        laps += 1;
    }
    load.wall_s = load_ns as f64 / 1e9;

    let ops = total.ops;
    r.attempted = ops + step_errors.len() as u64;
    r.failed = incomplete + step_errors.len() as u64;
    r.check("operations completed", ops > 0, format!("{ops} epochs"));
    r.check(
        "every epoch keeps the CNet invariants (dirty audit)",
        step_errors.is_empty(),
        step_errors.join("; "),
    );
    r.check(
        "Theorem 1: every probe completes within its round bound",
        incomplete == 0,
        format!("{incomplete} of {ops} did not"),
    );
    match first_lap {
        Some(pins) => r.check_pins(&pins, p.expected_pins(NAME).as_deref()),
        None => r.check(
            "first lap completed",
            false,
            format!("{ops} of {lap} epochs run"),
        ),
    }

    if !p.trace {
        end_to_end(&mut r, &load, TAIL_PCT, &setups_s, peak_rss_mib());
        return r;
    }
    let summary = tr.summary();
    let s = total;
    let setup_sum = setup_tr.summary();
    let per_op = |v: u64| ratio(v as f64, s.ops as f64);
    let ms_per_op = |ns: u64| per_op(ns) / 1e6;
    let run_ns = summary.get("runner.run").total_ns as f64;
    let mut l = Layers::new();
    l.set("geom.deploy_ms", setup_sum.mean_ms("geom.deploy"));
    l.set("cluster.build_ms", setup_sum.mean_ms("cluster.build"));
    l.set("knowledge.build_ms", setup_sum.mean_ms("knowledge.build"));
    l.set("cluster.move_ins", n as f64);
    l.set("cluster.reconfigs", per_op(s.reconfigs));
    l.set("cluster.rehomed", per_op(s.rehomed));
    l.set(
        "cluster.repair_ms_per_reconfig",
        ratio(s.repair_ns as f64 / 1e6, s.reconfigs as f64),
    );
    l.set("cluster.slot_churn", per_op(s.slot_churn));
    l.set("cluster.audit_scope", per_op(s.audit_scope));
    l.set("mobility.step_ms", summary.mean_ms("mobility.step"));
    l.set("mobility.diff_ms", ms_per_op(s.diff_ns));
    l.set("mobility.repair_ms", ms_per_op(s.repair_ns));
    l.set("mobility.slots_ms", ms_per_op(s.slots_ns));
    l.set("mobility.audit_ms", ms_per_op(s.audit_ns));
    l.set("mobility.moved", per_op(s.moved));
    l.set("mobility.edge_events", per_op(s.edge_events));
    l.set("mobility.deferred", per_op(s.deferred));
    l.set("knowledge.get_us", summary.mean_us("knowledge.get"));
    l.set("knowledge.hits", per_op(s.hits));
    l.set("knowledge.misses", per_op(s.misses));
    l.set("knowledge.patched", per_op(s.patched));
    l.set("knowledge.patched_scope", per_op(s.patched_scope));
    l.set("knowledge.fallbacks", per_op(s.fallbacks));
    l.set(
        "knowledge.patched_share",
        ratio(s.patched as f64, s.misses as f64),
    );
    l.set("runner.run_ms", summary.mean_ms("runner.run"));
    l.set("radio.rounds", per_op(s.rounds));
    l.set(
        "radio.rounds_per_s",
        ratio(traced_rounds as f64, run_ns / 1e9),
    );
    // The probe runs the sequential engine: one thread.
    l.set("radio.cpu_util", ratio(s.run_cpu_ns as f64, run_ns));
    l.set("radio.max_awake", per_op(s.awake));
    l.overhead(&split, 1);
    l.finish(&mut r, &summary);
    r
}
