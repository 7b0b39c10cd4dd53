//! `dsnet` — command-line front end for the reproduction.
//!
//! ```text
//! dsnet stats     --nodes 300 --seed 7 [--field 10]
//! dsnet broadcast --nodes 300 --seed 7 [--protocol cff|cff1|rcff|dfo] [--channels k]
//!                 [--source id] [--loss p0.05] [--retries R]
//! dsnet multicast --nodes 300 --seed 7 --density 0.1 [--reliable]
//! dsnet churn     --nodes 200 --seed 7 --epochs 10
//! dsnet render    --nodes 250 --seed 7 --out network.svg
//! dsnet campaign  --ns 100,200 --reps 5 --protocols cff,cff1,rcff,dfo \
//!                 [--channels 1,2] [--failures none,bb3@1,bb3@1+10] [--churn none,j5l2] \
//!                 [--loss none,p0.05] [--repair off,on] \
//!                 [--mobility none,rwp0.05x20p2,gm0.05x20] [--retries R] \
//!                 [--threads T] [--json FILE] [--csv FILE] [--trials] [--quiet] \
//!                 [--journal FILE | --resume FILE]
//! dsnet perf      [--quick] [--threads T] [--out BENCH.json] [--date YYYY-MM-DD] \
//!                 [--compare BASELINE.json] [--max-regress 0.15] [--quiet]
//! dsnet scale     --nodes 10000 --seed 7 [--threads T] [--shards CELLS] \
//!                 [--protocol cff|cff1|rcff|dfo] [--channels k] [--quiet]
//! dsnet serve     [--tcp ADDR] [--unix PATH] [--max-sessions N] [--shards N] [--quiet]
//! dsnet client    (--tcp ADDR | --unix PATH) [--session NAME] \
//!                 (--ping | --create | --destroy | --script FILE [--keep] | \
//!                  --stream | --peek | --watch [--count K] | --shutdown) \
//!                 [--nodes N] [--seed S] [--field SIDE] [--groups G] [--density P]
//! dsnet direct    --script FILE [--nodes N] [--seed S] [--field SIDE] \
//!                 [--groups G] [--density P]
//! ```
//!
//! Every command is deterministic per `--seed`; `campaign` artifacts are
//! additionally byte-identical for any `--threads` value, and `scale`
//! prints the full traced event stream of one density-scaled broadcast —
//! byte-identical for any `--threads`/`--shards` value, which is exactly
//! what the `scale` determinism-smoke axis diffs. `client
//! --script` against a live daemon (over its JSON wire protocol) and
//! `direct --script` print the same deterministic event stream for the
//! same spec and script — CI diffs the two (the `server-reactor`
//! determinism-smoke axis).
//!
//! `campaign --journal FILE` appends a crash-consistent intent/commit
//! record per trial to an fsync'd journal; after a crash, `campaign
//! --resume FILE` (same spec flags) skips the committed trials and
//! provably emits the artifacts an uninterrupted run would have — the
//! `resume` determinism-smoke axis kills a campaign at an injected
//! crash point and diffs exactly that.
//!
//! `perf --compare BASELINE --max-regress 1` is the counters-only check:
//! a throughput ratio is never negative, so it fails only when a
//! deterministic counter drifted or is missing — a machine-independent
//! test that two builds simulate the same thing.

use dsnet::campaign_engine::{
    parse_repair, render_csv, render_json, render_trials_csv, spec_fingerprint, write_artifact,
    CampaignSpec, ChurnTemplate, FailureTemplate, Journal, LossSpec, MobilitySpec, Progress,
    ProtocolSpec, TrialRecord,
};
use dsnet::protocols::runner::{MulticastSlots, RunConfig};
use dsnet::session::render_stream;
use dsnet::viz::{render_svg, VizOptions};
use dsnet::{
    Broadcast, GroupPlan, NetSession, NetworkBuilder, Protocol, SensorNetwork, SessionSpec,
};
use dsnet_graph::NodeId;
use dsnet_radio::LossModel;
use dsnet_server::protocol::{parse_script, protocol_from_label};
use dsnet_server::{run_script, Client, ClientError, ServeOptions, Server};
use std::io::Write as _;
use std::path::PathBuf;

struct Args {
    nodes: usize,
    seed: u64,
    field: f64,
    protocol: Protocol,
    channels: u8,
    source: Option<u32>,
    density: f64,
    reliable: bool,
    epochs: u32,
    out: String,
    // campaign-only axes and outputs
    ns: Vec<usize>,
    reps: u64,
    protocols: Vec<ProtocolSpec>,
    channel_set: Vec<u8>,
    failures: Vec<FailureTemplate>,
    churn: Vec<ChurnTemplate>,
    losses: Vec<LossSpec>,
    repair: Vec<bool>,
    mobility: Vec<MobilitySpec>,
    retries: u32,
    threads: usize,
    json: Option<String>,
    csv: Option<String>,
    journal: Option<String>,
    resume: Option<String>,
    trials: bool,
    no_trace: bool,
    quiet: bool,
    // perf-only
    quick: bool,
    date: Option<String>,
    compare: Option<String>,
    max_regress: f64,
    // serve/client-only
    tcp: Option<String>,
    unix_sock: Option<String>,
    max_sessions: usize,
    shards: usize,
    session: Option<String>,
    script: Option<String>,
    action: Option<&'static str>,
    keep: bool,
    count: usize,
    groups: u16,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            nodes: 300,
            seed: 2007,
            field: 10.0,
            protocol: Protocol::ImprovedCff,
            channels: 1,
            source: None,
            density: 0.1,
            reliable: false,
            epochs: 10,
            out: "network.svg".into(),
            ns: vec![100, 200, 300],
            reps: 3,
            protocols: vec![ProtocolSpec::ImprovedCff, ProtocolSpec::Dfo],
            channel_set: vec![1],
            failures: vec![FailureTemplate::None],
            churn: vec![ChurnTemplate::default()],
            losses: vec![LossSpec::none()],
            repair: vec![false],
            mobility: vec![MobilitySpec::None],
            retries: 2,
            threads: 0,
            json: None,
            csv: None,
            journal: None,
            resume: None,
            trials: false,
            no_trace: false,
            quiet: false,
            quick: false,
            date: None,
            compare: None,
            max_regress: 0.15,
            tcp: None,
            unix_sock: None,
            max_sessions: 0,
            shards: 0,
            session: None,
            script: None,
            action: None,
            keep: false,
            count: 0,
            groups: 0,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: dsnet <stats|broadcast|multicast|churn|render|campaign|perf|scale|serve|client|direct> \
         [--nodes N] [--seed S] [--field SIDE] [--protocol cff|cff1|rcff|dfo] \
         [--channels K] [--source ID] [--density P] [--reliable] \
         [--loss none|p<P>] [--retries R] [--epochs E] [--out FILE]\n\
         campaign axes: [--ns N1,N2,..] [--reps R] [--protocols cff,cff1,rcff,dfo] \
         [--channels K1,K2,..] [--failures none|bb<C>@<R>[+<D>]|any<C>@<R>[+<D>],..] \
         [--churn none|j<J>l<L>,..] [--loss none,p<P>,..] [--repair off,on] \
         [--mobility none|rwp<V>x<E>p<P>|gm<V>x<E>,..] \
         [--retries R] [--threads T] [--json FILE] [--csv FILE] \
         [--trials] [--no-trace] [--quiet] [--journal FILE | --resume FILE]\n\
         perf: dsnet perf [--quick] [--threads T] [--out FILE] [--date YYYY-MM-DD] \
         [--compare BASELINE.json] [--max-regress F] [--quiet] \
         (--max-regress 1 compares the exact counters only)\n\
         scale: dsnet scale --nodes N --seed S [--threads T] [--shards CELLS] \
         [--protocol cff|cff1|rcff|dfo] [--channels K] [--quiet]\n\
         serve: dsnet serve [--tcp ADDR] [--unix PATH] [--max-sessions N] \
         [--shards N] [--quiet]\n\
         client: dsnet client (--tcp ADDR | --unix PATH) [--session NAME] \
         (--ping | --create | --destroy | --script FILE [--keep] | --stream | \
         --peek | --watch [--count K] | --shutdown) \
         [--nodes N] [--seed S] [--field SIDE] [--groups G] [--density P]\n\
         direct: dsnet direct --script FILE [--nodes N] [--seed S] [--field SIDE] \
         [--groups G] [--density P]"
    );
    std::process::exit(2);
}

fn parse_list<T>(raw: &str, parse_one: impl Fn(&str) -> Option<T>) -> Vec<T> {
    let items: Vec<T> = raw.split(',').filter_map(|s| parse_one(s.trim())).collect();
    if items.is_empty() || items.len() != raw.split(',').count() {
        usage();
    }
    items
}

fn parse() -> (String, Args) {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else { usage() };
    let mut a = Args::default();
    while let Some(flag) = argv.next() {
        let mut val = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--nodes" => a.nodes = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--field" => a.field = val().parse().unwrap_or_else(|_| usage()),
            "--channels" => {
                a.channel_set = parse_list(&val(), |s| s.parse().ok());
                a.channels = a.channel_set[0];
            }
            "--source" => a.source = Some(val().parse().unwrap_or_else(|_| usage())),
            "--density" => a.density = val().parse().unwrap_or_else(|_| usage()),
            "--epochs" => a.epochs = val().parse().unwrap_or_else(|_| usage()),
            "--out" => a.out = val(),
            "--reliable" => a.reliable = true,
            "--protocol" => a.protocol = protocol_from_label(&val()).unwrap_or_else(|| usage()),
            "--loss" => a.losses = parse_list(&val(), LossSpec::parse),
            "--repair" => a.repair = parse_list(&val(), parse_repair),
            "--mobility" => a.mobility = parse_list(&val(), MobilitySpec::parse),
            "--retries" => a.retries = val().parse().unwrap_or_else(|_| usage()),
            "--ns" => a.ns = parse_list(&val(), |s| s.parse().ok()),
            "--reps" => a.reps = val().parse().unwrap_or_else(|_| usage()),
            "--protocols" => a.protocols = parse_list(&val(), ProtocolSpec::parse),
            "--failures" => a.failures = parse_list(&val(), FailureTemplate::parse),
            "--churn" => a.churn = parse_list(&val(), ChurnTemplate::parse),
            "--threads" => a.threads = val().parse().unwrap_or_else(|_| usage()),
            "--json" => a.json = Some(val()),
            "--csv" => a.csv = Some(val()),
            "--journal" => a.journal = Some(val()),
            "--resume" => a.resume = Some(val()),
            "--trials" => a.trials = true,
            "--no-trace" => a.no_trace = true,
            "--quiet" => a.quiet = true,
            "--quick" => a.quick = true,
            "--date" => a.date = Some(val()),
            "--compare" => a.compare = Some(val()),
            "--max-regress" => a.max_regress = val().parse().unwrap_or_else(|_| usage()),
            "--tcp" => a.tcp = Some(val()),
            "--unix" => a.unix_sock = Some(val()),
            "--max-sessions" => a.max_sessions = val().parse().unwrap_or_else(|_| usage()),
            "--shards" => a.shards = val().parse().unwrap_or_else(|_| usage()),
            "--session" => a.session = Some(val()),
            "--script" => {
                a.script = Some(val());
                a.action = Some("script");
            }
            "--ping" => a.action = Some("ping"),
            "--create" => a.action = Some("create"),
            "--destroy" => a.action = Some("destroy"),
            "--stream" => a.action = Some("stream"),
            "--peek" => a.action = Some("peek"),
            "--watch" => a.action = Some("watch"),
            "--shutdown" => a.action = Some("shutdown"),
            "--keep" => a.keep = true,
            "--count" => a.count = val().parse().unwrap_or_else(|_| usage()),
            "--groups" => a.groups = val().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    (cmd, a)
}

/// Render a duration estimate compactly (`42s`, `3m07s`, `2h15m`).
fn fmt_eta(secs: f64) -> String {
    if !secs.is_finite() || secs < 0.0 {
        return "?".into();
    }
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

fn run_campaign_cmd(a: &Args) {
    let spec = CampaignSpec {
        name: "cli".into(),
        field_side: a.field,
        ns: a.ns.clone(),
        reps: a.reps,
        base_seed: a.seed,
        protocols: a.protocols.clone(),
        channels: a.channel_set.clone(),
        failures: a.failures.clone(),
        churn: a.churn.clone(),
        losses: a.losses.clone(),
        repair: a.repair.clone(),
        mobility: a.mobility.clone(),
        max_retries: a.retries,
        record_trace: !a.no_trace,
    };

    // Journaling: --journal starts a fresh crash-consistent journal,
    // --resume validates an existing one against this exact spec and
    // prefills the trials it already commits.
    let journal_fail = |e: dsnet::campaign_engine::JournalError| -> ! {
        eprintln!("campaign: {e}");
        std::process::exit(1);
    };
    let (journal, completed): (Option<Journal>, Option<Vec<Option<TrialRecord>>>) =
        match (&a.journal, &a.resume) {
            (Some(_), Some(_)) => {
                eprintln!(
                    "campaign: --journal and --resume are mutually exclusive \
                     (--resume appends to the journal it reads)"
                );
                std::process::exit(2);
            }
            (Some(path), None) => {
                let j = Journal::create(
                    std::path::Path::new(path),
                    spec_fingerprint(&spec),
                    spec.trial_count(),
                )
                .unwrap_or_else(|e| journal_fail(e));
                (Some(j), None)
            }
            (None, Some(path)) => {
                let (j, completed) = Journal::resume(
                    std::path::Path::new(path),
                    spec_fingerprint(&spec),
                    spec.trial_count(),
                )
                .unwrap_or_else(|e| journal_fail(e));
                let done = completed.iter().filter(|c| c.is_some()).count();
                if !a.quiet {
                    eprintln!(
                        "campaign: resuming {path}: {done}/{} trials already committed",
                        spec.trial_count()
                    );
                }
                (Some(j), Some(completed))
            }
            (None, None) => (None, None),
        };

    // Progress line: trials done / total plus an ETA from a rolling
    // window of recent completions, so hour-long journaled runs are
    // observable without polling the journal file.
    let window: std::sync::Mutex<std::collections::VecDeque<(std::time::Instant, u64)>> =
        std::sync::Mutex::new(std::collections::VecDeque::new());
    let progress = |p: Progress<'_>| {
        let now = std::time::Instant::now();
        let mut w = window.lock().expect("progress window");
        w.push_back((now, p.done));
        while w.len() > 64 {
            w.pop_front();
        }
        let rate = if w.len() >= 2 {
            let (t0, d0) = w[0];
            let dt = now.duration_since(t0).as_secs_f64();
            let dd = p.done.saturating_sub(d0) as f64;
            (dd > 0.0 && dt > 0.0).then(|| dd / dt)
        } else {
            None
        };
        match rate {
            Some(rate) => eprint!(
                "\r[{}/{}] {:.1} trials/s, ETA {} — {}          ",
                p.done,
                p.total,
                rate,
                fmt_eta((p.total - p.done) as f64 / rate),
                p.trial.cell_label()
            ),
            None => eprint!(
                "\r[{}/{}] {}          ",
                p.done,
                p.total,
                p.trial.cell_label()
            ),
        }
        let _ = std::io::stderr().flush();
    };
    let result = dsnet::campaign::run_resumable(
        &spec,
        a.threads,
        if a.quiet { None } else { Some(&progress) },
        journal.as_ref(),
        completed,
    );
    if !a.quiet {
        eprintln!();
    }
    println!(
        "{} trials on {} threads in {:.2}s",
        result.trials.len(),
        result.threads,
        result.elapsed.as_secs_f64()
    );
    println!(
        "{:<70} {:>14} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "cell", "rounds", "p50", "p90", "delivery", "d-alive", "repair", "max-awake", "collisions"
    );
    for c in &result.cells {
        println!(
            "{:<70} {:>14} {:>7} {:>7} {:>9.3} {:>9.3} {:>9} {:>9.1} {:>10}",
            c.label(),
            c.rounds.to_string(),
            c.rounds_p50,
            c.rounds_p90,
            c.delivery.mean,
            c.delivery_alive.mean,
            c.repair_rounds
                .as_ref()
                .map_or("n/a".into(), |s| format!("{:.1}", s.mean)),
            c.max_awake.mean,
            c.collisions.map_or("n/a".into(), |v| v.to_string()),
        );
    }
    if let Some(path) = &a.json {
        let doc = render_json(&result, a.trials);
        write_artifact(path, doc.as_bytes()).expect("write JSON artifact");
        println!("wrote {path} ({} bytes)", doc.len());
    }
    if let Some(path) = &a.csv {
        let doc = render_csv(&result);
        write_artifact(path, doc.as_bytes()).expect("write CSV artifact");
        println!("wrote {path} ({} bytes)", doc.len());
        if a.trials {
            let tpath = format!("{path}.trials.csv");
            let tdoc = render_trials_csv(&result);
            write_artifact(&tpath, tdoc.as_bytes()).expect("write trials CSV artifact");
            println!("wrote {tpath} ({} bytes)", tdoc.len());
        }
    }
}

fn run_perf_cmd(a: &Args) {
    use dsnet::perf;
    let opts = perf::PerfOptions {
        quick: a.quick,
        threads: a.threads,
        date: a.date.clone(),
    };
    let mut ledger = perf::run_suite(&opts);
    // The core suite is serve-free (no dependency cycle); the CLI owns
    // appending the server load-test scenarios and refreshing peak RSS
    // to cover them.
    ledger
        .scenarios
        .push(dsnet_server::perf::run_serve_sessions(&opts));
    ledger
        .scenarios
        .push(dsnet_server::perf::run_serve_sessions_5k(&opts));
    ledger
        .scenarios
        .push(dsnet_server::perf::run_serve_sessions_20k(&opts));
    ledger.peak_rss_kb = perf::peak_rss_kb();
    if !a.quiet {
        eprintln!(
            "dsnet perf{} on {} thread(s), peak RSS {} KiB",
            if a.quick { " --quick" } else { "" },
            if a.threads == 0 {
                "auto".into()
            } else {
                a.threads.to_string()
            },
            ledger.peak_rss_kb
        );
        for s in &ledger.scenarios {
            eprintln!(
                "  {:<20} {:>4} n × {:>3} reps  {:>9} rounds  {:>8.1} ms  {:>10.0} rounds/s",
                s.name, s.nodes, s.reps, s.rounds, s.wall_ms, s.rounds_per_sec
            );
            if let Some(m) = &s.maintenance {
                eprintln!(
                    "  {:<20} diff {:.1} ms, repair {:.1} ms, slots {:.1} ms, audit {:.1} ms \
                     (scope {}); {} reconfigs, {} rehomed, cache {}/{}",
                    "  maintenance:",
                    m.diff_ms,
                    m.repair_ms,
                    m.slots_ms,
                    m.audit_ms,
                    m.audit_scope,
                    m.reconfigs,
                    m.rehomed,
                    m.cache_hits,
                    m.cache_hits + m.cache_misses
                );
            }
            if let Some(sv) = &s.server {
                eprintln!(
                    "  {:<20} {} sessions on {} client threads, {} cmds; \
                     {:.0} sessions/s, cmd p50 {:.0} us, p99 {:.0} us, p999 {:.0} us",
                    "  serve:",
                    sv.sessions,
                    sv.client_threads,
                    sv.commands,
                    sv.sessions_per_sec,
                    sv.cmd_p50_us,
                    sv.cmd_p99_us,
                    sv.cmd_p999_us
                );
            }
        }
    }
    // `--out` doubles as the render command's SVG path; its default is
    // not a ledger name, so treat it as unset here.
    let out = if a.out == "network.svg" {
        format!("BENCH_{}.json", ledger.date)
    } else {
        a.out.clone()
    };
    let doc = perf::render_ledger(&ledger, true);
    std::fs::write(&out, &doc).expect("write perf ledger");
    println!("wrote {out} ({} bytes)", doc.len());
    if let Some(baseline_path) = &a.compare {
        let baseline = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            std::process::exit(2);
        });
        let cmp = perf::compare(&baseline, &ledger, a.max_regress);
        for note in &cmp.notes {
            println!("  {note}");
        }
        if cmp.passed() {
            println!(
                "perf gate PASSED vs {baseline_path} (max regression {:.0}%)",
                a.max_regress * 100.0
            );
        } else {
            for f in &cmp.failures {
                eprintln!("FAIL: {f}");
            }
            eprintln!("perf gate FAILED vs {baseline_path}");
            std::process::exit(1);
        }
    }
}

/// One traced broadcast over a density-scaled unit-disk field, with the
/// full deterministic event stream on stdout.
///
/// The field side is derived as `sqrt(nodes / 5)` (~5 nodes per unit²),
/// so per-node degree stays constant as `--nodes` grows — this is the
/// CLI surface of the 10k/100k perf scenarios. Delivery is sharded over
/// a spatial cell grid (`--shards`, default 64 cells) and executed on
/// `--threads` workers; by the engine's determinism contract the stdout
/// stream is byte-identical for every thread and cell count, and the
/// `scale` determinism-smoke axis diffs exactly that. Timing goes to
/// stderr, never stdout.
fn run_scale_cmd(a: &Args) {
    let side = (a.nodes as f64 / 5.0).sqrt();
    let t0 = std::time::Instant::now();
    let net = NetworkBuilder::paper_field(side, a.nodes, a.seed)
        .build()
        .expect("incremental deployments always build");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let threads = a.threads.max(1);
    let cells = if a.shards == 0 { 64 } else { a.shards };
    let plan = net.shard_plan(cells);
    let cell_count = plan.cell_count();
    let cfg = RunConfig {
        channels: a.channels,
        shards: Some(plan),
        threads,
        ..RunConfig::default()
    };
    let t1 = std::time::Instant::now();
    let run = net.run(&Broadcast::new(a.protocol, net.sink()), &cfg);
    let (out, trace) = (run.outcome, run.trace);
    let run_ms = t1.elapsed().as_secs_f64() * 1e3;
    if !a.quiet {
        eprintln!(
            "scale: n={} side={side:.1} — build {build_ms:.0} ms, broadcast {run_ms:.0} ms \
             on {threads} thread(s) over {cell_count} cells",
            a.nodes
        );
    }
    let stdout = std::io::stdout();
    let mut w = std::io::BufWriter::new(stdout.lock());
    writeln!(
        w,
        "scale n={} seed={} protocol={:?} channels={} cells={cell_count}",
        a.nodes, a.seed, a.protocol, a.channels
    )
    .expect("write stream");
    writeln!(
        w,
        "outcome rounds={} delivered={} targets={} max_awake={} collisions={}",
        out.rounds,
        out.delivered,
        out.targets,
        out.max_awake(),
        trace.collision_count()
    )
    .expect("write stream");
    for warn in trace.warnings() {
        writeln!(w, "warn {warn}").expect("write stream");
    }
    for ev in trace.events() {
        writeln!(w, "{ev:?}").expect("write stream");
    }
}

/// The session spec implied by the shared CLI flags (integer wire units:
/// `--field 10` → 10_000 milli, `--density 0.1` → 100_000 ppm).
fn spec_from_args(a: &Args) -> SessionSpec {
    SessionSpec {
        nodes: a.nodes,
        seed: a.seed,
        field_milli: (a.field * 1e3).round() as u32,
        groups: a.groups,
        membership_ppm: (a.density * 1e6).round() as u32,
    }
}

fn run_serve_cmd(a: &Args) {
    let opts = ServeOptions {
        tcp: a.tcp.clone(),
        unix: a.unix_sock.clone().map(PathBuf::from),
        max_sessions: a.max_sessions,
        shards: a.shards,
        ..ServeOptions::default()
    };
    dsnet_server::install_sigint_handler();
    let server = Server::start(&opts).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(2);
    });
    if let Some(addr) = server.tcp_addr() {
        println!("listening tcp {addr}");
    }
    if let Some(path) = &a.unix_sock {
        println!("listening unix {path}");
    }
    println!("ready ({} session slots)", server.host().max_sessions());
    let _ = std::io::stdout().flush();
    if !a.quiet {
        eprintln!("dsnet-server up; Ctrl-C or the wire 'shutdown' op drains and exits");
    }
    server.wait();
    if !a.quiet {
        eprintln!("dsnet-server drained");
    }
}

fn client_ok<T>(r: Result<T, ClientError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("client: {e}");
        std::process::exit(1);
    })
}

fn connect_client(a: &Args) -> Client {
    let conn = match (&a.tcp, &a.unix_sock) {
        (Some(addr), None) => Client::connect_tcp(addr),
        (None, Some(path)) => Client::connect_unix(std::path::Path::new(path)),
        _ => {
            eprintln!("client: exactly one of --tcp or --unix is required");
            std::process::exit(2);
        }
    };
    conn.unwrap_or_else(|e| {
        eprintln!("client: connect failed: {e}");
        std::process::exit(1);
    })
}

fn load_script(a: &Args) -> Vec<dsnet::SessionCommand> {
    let path = a.script.as_deref().unwrap_or_else(|| usage());
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read script {path}: {e}");
        std::process::exit(2);
    });
    parse_script(&text).unwrap_or_else(|e| {
        eprintln!("script {path}: {e}");
        std::process::exit(2);
    })
}

fn run_client_cmd(a: &Args) {
    let mut client = connect_client(a);
    let session = || {
        a.session.clone().unwrap_or_else(|| {
            eprintln!("client: this action needs --session NAME");
            std::process::exit(2);
        })
    };
    match a.action.unwrap_or_else(|| usage()) {
        "ping" => println!("{}", client_ok(client.ping()).render()),
        "create" => println!(
            "{}",
            client_ok(client.create(&session(), spec_from_args(a))).render()
        ),
        "destroy" => println!("{}", client_ok(client.destroy(&session())).render()),
        "stream" => print!("{}", client_ok(client.stream_text(&session()))),
        "peek" => println!("{}", client_ok(client.peek(&session())).render()),
        "shutdown" => println!("{}", client_ok(client.shutdown()).render()),
        "script" => {
            let cmds = load_script(a);
            let report = client_ok(run_script(
                &mut client,
                &session(),
                spec_from_args(a),
                &cmds,
                !a.keep,
            ));
            if !a.quiet {
                eprintln!(
                    "script: {} applied, {} rejected, {} rounds, {}/{} delivered",
                    report.applied,
                    report.rejected,
                    report.rounds,
                    report.delivered,
                    report.targets
                );
            }
            // Stdout carries exactly the deterministic stream so it can
            // be diffed against `dsnet direct --script`.
            print!("{}", report.stream);
        }
        "watch" => {
            let (count, mut seen) = (a.count, 0usize);
            client_ok(client.watch(&session(), |line| {
                println!("{line}");
                seen += 1;
                count == 0 || seen < count
            }));
        }
        _ => usage(),
    }
}

fn run_direct_cmd(a: &Args) {
    let cmds = load_script(a);
    let spec = spec_from_args(a);
    let mut session = NetSession::new(spec).unwrap_or_else(|e| {
        eprintln!("direct: build failed: {e}");
        std::process::exit(1);
    });
    for cmd in &cmds {
        session.apply(cmd);
    }
    print!(
        "{}",
        render_stream(session.spec(), session.records(), false)
    );
}

fn build(a: &Args, groups: bool) -> SensorNetwork {
    let mut b = NetworkBuilder::paper_field(a.field, a.nodes, a.seed);
    if groups {
        b = b.groups(GroupPlan {
            groups: 1,
            membership: a.density,
        });
    }
    b.build().expect("incremental deployments always build")
}

fn main() {
    let (cmd, a) = parse();
    match cmd.as_str() {
        "stats" => {
            let net = build(&a, false);
            let s = net.stats();
            println!("nodes            {}", s.nodes);
            println!("edges            {}", s.edges);
            println!("heads            {}", s.heads);
            println!("gateways         {}", s.gateways);
            println!("members          {}", s.members);
            println!("backbone size    {}", s.backbone_size);
            println!("backbone height  {}", s.backbone_height);
            println!("CNet height      {}", s.cnet_height);
            println!("D (max degree)   {}", s.max_degree);
            println!("d (BT degree)    {}", s.backbone_max_degree);
            println!("Δ (max l-slot)   {}", s.delta_l);
            println!("δ (max b-slot)   {}", s.delta_b);
        }
        "broadcast" => {
            let net = build(&a, false);
            let source = a.source.map(NodeId).unwrap_or_else(|| net.sink());
            let loss = a.losses[0];
            let cfg = RunConfig {
                channels: a.channels,
                loss: if loss.is_none() {
                    LossModel::none()
                } else {
                    LossModel::from_ppm(loss.ppm, a.seed)
                },
                max_retries: a.retries,
                ..Default::default()
            };
            let out = net.run(&Broadcast::new(a.protocol, source), &cfg).outcome;
            println!(
                "{:?} from {source}: {} rounds (bound {}), {}/{} delivered \
                 (ratio {:.3}, alive-ratio {:.3}), max awake {}, mean awake {:.1}",
                a.protocol,
                out.rounds,
                out.bound,
                out.delivered,
                out.targets,
                out.delivery_ratio(),
                out.delivery_ratio_alive(),
                out.max_awake(),
                out.energy.mean_awake
            );
        }
        "multicast" => {
            let net = build(&a, true);
            let out = if a.reliable {
                let req = Broadcast::multicast(net.sink(), 0, MulticastSlots::Session);
                net.run(&req, &RunConfig::default()).outcome
            } else {
                net.multicast(0)
            };
            println!(
                "{} multicast (density {}): {} rounds, {}/{} delivered, radio-on {} rounds",
                if a.reliable { "reliable" } else { "paper" },
                a.density,
                out.rounds,
                out.delivered,
                out.targets,
                out.energy.total_listen + out.energy.total_tx
            );
        }
        "churn" => {
            use dsnet::geom::rng::{derive_seed, rng_from_seed};
            use dsnet::geom::Point2;
            use rand::Rng as _;
            let mut net = build(&a, false);
            let mut rng = rng_from_seed(derive_seed(a.seed, 0xC0DE));
            for epoch in 1..=a.epochs {
                for _ in 0..3 {
                    let nodes: Vec<NodeId> = net.net().tree().nodes().collect();
                    let _ = net.leave(nodes[rng.random_range(0..nodes.len())]);
                }
                for _ in 0..3 {
                    let nodes: Vec<NodeId> = net.net().tree().nodes().collect();
                    let p = net.position(nodes[rng.random_range(0..nodes.len())]);
                    let theta = rng.random_range(0.0..std::f64::consts::TAU);
                    let _ = net.join(
                        Point2::new(p.x + 0.3 * theta.cos(), p.y + 0.3 * theta.sin()),
                        &[],
                    );
                }
                net.check();
                let out = net.broadcast(Protocol::ImprovedCff);
                println!(
                    "epoch {epoch}: {} nodes, broadcast {} rounds, {}/{}",
                    net.len(),
                    out.rounds,
                    out.delivered,
                    out.targets
                );
            }
        }
        "render" => {
            let net = build(&a, false);
            let svg = render_svg(&net, &VizOptions::default());
            std::fs::write(&a.out, &svg).expect("write SVG");
            println!("wrote {} ({} bytes)", a.out, svg.len());
        }
        "campaign" => run_campaign_cmd(&a),
        "perf" => run_perf_cmd(&a),
        "scale" => run_scale_cmd(&a),
        "serve" => run_serve_cmd(&a),
        "client" => run_client_cmd(&a),
        "direct" => run_direct_cmd(&a),
        _ => usage(),
    }
}
