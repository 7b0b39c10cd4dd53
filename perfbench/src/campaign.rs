//! `campaign_sweep`: trials of journaled campaigns at `threads = 2` over
//! the paper's Section 6 sizes (n = 100…500 on the 10×10 field).
//!
//! One *chunk* runs two campaigns back to back: improved CFF vs DFO with
//! no loss, and reliable CFF at 10% loss with one backbone fail-stop and
//! repair on. Each trial goes through this crate's own `TrialRunner`
//! closure, which journals the intent, calls `dsnet::campaign::run_trial`
//! and journals the commit — so the spans around the journal appends and
//! the trial are the benchmark's own, while the engine's pool schedules
//! the trials. Chunks repeat with fresh seeds until the load phase ends.
//!
//! The journal lives under this package's `.journal/` directory, inside
//! the checkout the benchmark was built in, on whatever file system that
//! is; each chunk's journals are deleted when the chunk ends.

use crate::report::{end_to_end, peak_rss_mib, ratio, Layers, Load, Report, Split};
use crate::trace::{Summary, Tracer};
use crate::{fnv, timed, traced_op, Params, Size, FNV_BASIS};
use dsnet::campaign::run_trial;
use dsnet::campaign_engine::{
    read_journal, run_campaign, spec_fingerprint, CampaignSpec, ChurnTemplate, FailureTemplate,
    Journal, LossSpec, MobilitySpec, ProtocolSpec, Trial, TrialRecord,
};
use dsnet::geom::rng::derive_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "campaign_sweep";
/// Tail percentile reported as `op_tail_ms`: p90. The quartile spread of
/// p99 across ten runs reached 10.8%, and 20–33% in noisier hours, past
/// the tenth it must hold within (see README.md).
pub const TAIL_PCT: f64 = 90.0;
/// Campaign pool threads.
const THREADS: usize = 2;
/// Times the warm-up chunk runs in set-up.
const SETUPS: usize = 9;

fn sizes(size: Size) -> Vec<usize> {
    match size {
        Size::Full => vec![100, 200, 300, 400, 500],
        Size::Tiny => vec![20, 40],
    }
}

fn reps(size: Size) -> u64 {
    match size {
        Size::Full => 4,
        Size::Tiny => 1,
    }
}

/// The two campaigns of chunk `chunk`.
fn specs(p: &Params, chunk: u64) -> [CampaignSpec; 2] {
    let base = CampaignSpec {
        name: format!("bench-{chunk}"),
        field_side: 10.0,
        ns: sizes(p.size),
        reps: reps(p.size),
        base_seed: derive_seed(p.seed, 0xCA00 + chunk),
        protocols: vec![ProtocolSpec::ImprovedCff, ProtocolSpec::Dfo],
        channels: vec![1],
        failures: vec![FailureTemplate::None],
        churn: vec![ChurnTemplate::default()],
        losses: vec![LossSpec::none()],
        repair: vec![false],
        mobility: vec![MobilitySpec::None],
        max_retries: 3,
        record_trace: false,
    };
    let lossy = CampaignSpec {
        protocols: vec![ProtocolSpec::ReliableCff],
        failures: vec![FailureTemplate::Backbone { count: 1, round: 1 }],
        losses: vec![LossSpec::from_probability(0.1)],
        repair: vec![true],
        ..base.clone()
    };
    [base, lossy]
}

fn label(p: ProtocolSpec) -> &'static str {
    match p {
        ProtocolSpec::ImprovedCff => "trial.run_ms.cff",
        ProtocolSpec::Dfo => "trial.run_ms.dfo",
        _ => "trial.run_ms.rcff",
    }
}

/// One trial as the closure saw it.
struct TrialOp {
    lat_ns: u64,
    traced: bool,
    label: &'static str,
    run_ns: u64,
    summary: Summary,
    /// A journal append failed or the trial panicked.
    failed: Option<String>,
    /// A loss- and failure-free trial that missed a target or its bound.
    incomplete: bool,
}

/// A record for a trial that panicked: it still has to fill its slot.
fn failed_record() -> TrialRecord {
    TrialRecord {
        rounds: 0,
        delivered: 0,
        targets: 0,
        targets_alive: 0,
        delivered_alive: 0,
        t50: None,
        t90: None,
        t_full: None,
        repair_rounds: None,
        max_awake: 0,
        mean_awake: 0.0,
        collisions: None,
        bound: 0,
        nodes: 0,
        reconfigs: None,
        slot_churn: None,
    }
}

fn journal_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.journal"))
}

/// Distinguishes journals of concurrent runs in one process (tests).
static JOURNALS: AtomicU64 = AtomicU64::new(0);

/// What one chunk produced.
struct Chunk {
    ops: Vec<TrialOp>,
    digest: u64,
    rounds: u64,
    trials: u64,
    appends: u64,
    journal_ok: bool,
}

/// Run chunk `chunk`; operation ids continue from `next_op`.
fn run_chunk(p: &Params, chunk: u64, next_op: &AtomicU64, epoch: Instant, verify: bool) -> Chunk {
    let dir = journal_dir();
    std::fs::create_dir_all(&dir).expect("create the journal directory");
    let ops = Mutex::new(Vec::new());
    let (mut digest, mut rounds, mut trials, mut appends) = (FNV_BASIS, 0, 0, 0);
    let mut journal_ok = true;
    for spec in specs(p, chunk) {
        let n_trials = spec.expand().len();
        let path = dir.join(format!(
            "{}-{}.journal",
            std::process::id(),
            JOURNALS.fetch_add(1, Ordering::Relaxed)
        ));
        let journal = Journal::create(&path, spec_fingerprint(&spec), n_trials)
            .expect("create a fresh journal");
        let clean = spec.losses[0].is_none();
        let runner = |trial: &Trial| -> TrialRecord {
            let op = next_op.fetch_add(1, Ordering::Relaxed) + 1;
            let traced = traced_op(p, op);
            let mut tr = Tracer::new(traced, epoch);
            tr.begin_op(op, traced);
            let t0 = Instant::now();
            tr.enter("op");
            let intent = tr.span("journal.intent", || journal.record_intent(trial.index));
            tr.enter("trial.run");
            let r0 = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| run_trial(trial)));
            let run_ns = r0.elapsed().as_nanos() as u64;
            tr.exit();
            let commit = match &out {
                Ok(rec) => tr.span("journal.commit", || journal.record_commit(trial.index, rec)),
                Err(_) => Ok(()),
            };
            tr.exit();
            let lat_ns = t0.elapsed().as_nanos() as u64;
            let failed = match (&intent, &out, &commit) {
                (Err(e), _, _) | (_, _, Err(e)) => Some(format!("journal: {e}")),
                (_, Err(_), _) => Some(format!("trial {} panicked", trial.index)),
                _ => None,
            };
            let incomplete = clean
                && out
                    .as_ref()
                    .is_ok_and(|r| r.delivered != r.targets || r.rounds > r.bound);
            ops.lock().expect("trial log lock").push(TrialOp {
                lat_ns,
                traced,
                label: label(trial.protocol),
                run_ns,
                summary: tr.summary(),
                failed,
                incomplete,
            });
            out.unwrap_or_else(|_| failed_record())
        };
        let result = run_campaign(&spec, &runner, THREADS, None);
        appends += journal.appends();
        drop(journal);
        if verify {
            let committed = read_journal(&path).map(|c| c.completed());
            journal_ok &= committed.is_ok_and(|c| {
                c.len() == result.records.len()
                    && c.iter()
                        .zip(&result.records)
                        .all(|(j, r)| j.as_ref() == Some(r))
            });
        }
        std::fs::remove_file(&path).expect("remove the chunk's journal");
        for rec in &result.records {
            digest = fnv(digest, format!("{rec:?}").as_bytes());
            rounds += rec.rounds;
        }
        trials += result.records.len() as u64;
    }
    Chunk {
        ops: ops.into_inner().expect("trial log lock"),
        digest,
        rounds,
        trials,
        appends,
        journal_ok,
    }
}

/// Run the workload.
pub fn run(p: &Params) -> Report {
    let mut r = Report::new(NAME);
    let epoch = Instant::now();
    // Set-up: the warm-up chunk, repeated; its records are the pinned
    // outputs and must repeat exactly.
    let setup_ops = AtomicU64::new(0);
    let mut setups_s = Vec::new();
    let mut warm: Option<Chunk> = None;
    let setups = if p.size == Size::Full { SETUPS } else { 1 };
    for _ in 0..setups {
        let (c, secs) = timed(|| run_chunk(p, 0, &setup_ops, epoch, true));
        setups_s.push(secs);
        if let Some(prev) = &warm {
            r.check("set-ups agree", prev.digest == c.digest, "");
        }
        warm = Some(c);
    }
    let warm = warm.expect("at least one set-up");
    r.check(
        "journal holds exactly the committed trial records",
        warm.journal_ok,
        "",
    );
    r.check_pins(
        &[
            ("chunk0_digest", warm.digest),
            ("chunk0_rounds", warm.rounds),
            ("chunk0_trials", warm.trials),
        ],
        p.expected_pins(NAME).as_deref(),
    );

    let next_op = AtomicU64::new(0);
    let window = Duration::from_secs_f64(p.seconds);
    let mut ops: Vec<TrialOp> = Vec::new();
    let (mut trials, mut appends) = (0u64, 0u64);
    let start = Instant::now();
    let mut chunk = 1;
    while start.elapsed() < window {
        let c = run_chunk(p, chunk, &next_op, epoch, false);
        trials += c.trials;
        appends += c.appends;
        ops.extend(c.ops);
        chunk += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();

    let failures: Vec<&str> = ops.iter().filter_map(|o| o.failed.as_deref()).collect();
    let incomplete = ops.iter().filter(|o| o.incomplete).count();
    r.attempted = ops.len() as u64;
    r.failed = (failures.len() + incomplete) as u64;
    r.check(
        "operations completed",
        !ops.is_empty(),
        format!("{trials} trials"),
    );
    r.check(
        "no trial panicked and every journal append succeeded",
        failures.is_empty(),
        failures
            .iter()
            .take(3)
            .copied()
            .collect::<Vec<_>>()
            .join("; "),
    );
    r.check(
        "Theorem 1: every loss-free trial delivers to all within its bound",
        incomplete == 0,
        format!("{incomplete} did not"),
    );
    r.check(
        "two journal appends per trial",
        appends == 2 * trials,
        format!("{appends} appends for {trials} trials"),
    );

    let load = Load {
        lat_ns: ops.iter().map(|o| o.lat_ns).collect(),
        wall_s,
    };
    if !p.trace {
        end_to_end(&mut r, &load, TAIL_PCT, &setups_s, peak_rss_mib());
        return r;
    }
    let mut summary = Summary::default();
    let mut split = Split::default();
    let mut by_label: Vec<(&'static str, u64, u64)> = Vec::new();
    for o in &ops {
        split.add(o.traced, o.lat_ns);
        if !o.traced {
            continue;
        }
        summary.merge(&o.summary);
        match by_label.iter_mut().find(|(l, _, _)| *l == o.label) {
            Some(e) => {
                e.1 += o.run_ns;
                e.2 += 1;
            }
            None => by_label.push((o.label, o.run_ns, 1)),
        }
    }
    let mut l = Layers::new();
    for (label, ns, n) in by_label {
        l.set(label, ratio(ns as f64 / 1e6, n as f64));
    }
    let busy: u64 = load.lat_ns.iter().sum();
    l.set(
        "campaign.pool_util",
        ratio(busy as f64 / 1e9, wall_s * THREADS as f64),
    );
    l.set("campaign.journal_appends", appends as f64);
    let (i, c) = (summary.get("journal.intent"), summary.get("journal.commit"));
    l.set(
        "campaign.journal_append_us",
        ratio(
            (i.total_ns + c.total_ns) as f64 / 1e3,
            (i.count + c.count) as f64,
        ),
    );
    l.overhead(&split, THREADS);
    l.finish(&mut r, &summary);
    r
}
