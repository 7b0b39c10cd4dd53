//! Every workload at a tiny size: metric names and units against
//! `BENCHMARK.json`, pinned outputs on the default and held-out seeds, a
//! perturbed pin that must fail the run, and the `serve_mix` stream
//! digests against a library-direct `NetSession` replay.

use dsnet::NetSession;
use dsnet_perfbench::report::PER_LAYER;
use dsnet_perfbench::serve::{peek_line, record_line, run_logged};
use dsnet_perfbench::{
    fnv, pins, run, Params, Report, Size, DEFAULT_SEED, FNV_BASIS, HELD_OUT_SEED, WORKLOADS,
};
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

/// Held by every test that runs a workload. The workloads time
/// themselves (the traced-run test bounds the unattributed share), and
/// tests running side by side on a small machine would preempt each
/// other in the middle of those timings.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock leaves nothing to repair.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny(seed: u64, trace: bool) -> Params {
    Params {
        seed,
        seconds: 0.4,
        trace,
        size: Size::Tiny,
        pins: None,
    }
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{list}\"")).expect("metric list");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("end of list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("value") + 1;
        let close = open + rest[open..].find('"').expect("value end");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn printed(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn failed_checks(r: &Report) -> Vec<String> {
    r.checks
        .iter()
        .filter(|c| !c.passed)
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect()
}

#[test]
fn declared_lists_match_the_program() {
    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), per_layer);
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{w}\"")),
            "{w} not declared"
        );
    }
}

#[test]
fn each_workload_prints_every_metric_with_its_unit_and_passes_its_checks() {
    let _serial = serial();
    let end_to_end = declared("end_to_end");
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        for w in WORKLOADS {
            let r = run(w, &tiny(seed, false)).expect("known workload");
            assert!(r.correct(), "{w} seed {seed}: {:?}", failed_checks(&r));
            assert_eq!(r.failed, 0, "{w} seed {seed}");
            assert!(r.attempted > 0, "{w} seed {seed}");
            assert_eq!(printed(&r), end_to_end, "{w}");
            assert!(
                r.metrics.iter().all(|m| m.value > 0.0),
                "{w}: an end-to-end metric read 0: {:?}",
                r.metrics
            );
            assert!(
                pins::expected(w, Size::Tiny, seed).is_some(),
                "{w} seed {seed} has no tiny pins"
            );
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let _serial = serial();
    for w in WORKLOADS {
        let r = run(w, &tiny(DEFAULT_SEED, true)).expect("known workload");
        assert!(r.correct(), "{w}: {:?}", failed_checks(&r));
        let want: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(printed(&r), want, "{w}");
        let v = |n: &str| r.value(n).expect("printed");
        assert!(v("trace.traced_ops_per_s") > 0.0, "{w}");
        assert!(
            v("self_pct.unattributed") < 10.0,
            "{w}: unattributed too high"
        );
    }
}

#[test]
fn a_perturbed_pin_fails_the_run() {
    let _serial = serial();
    for w in WORKLOADS {
        let expected = pins::expected(w, Size::Tiny, DEFAULT_SEED).expect("tiny pins");
        for i in [0, expected.len() - 1] {
            let mut perturbed = expected.to_vec();
            perturbed[i].1 = perturbed[i].1.wrapping_add(1);
            let mut p = tiny(DEFAULT_SEED, false);
            p.seconds = 0.2;
            p.pins = Some(perturbed);
            let r = run(w, &p).expect("known workload");
            let failed = failed_checks(&r);
            assert!(
                !r.correct(),
                "{w}: perturbing {} went unnoticed",
                expected[i].0
            );
            assert_eq!(failed.len(), 1, "{w}: {failed:?}");
            assert!(
                failed[0].starts_with(&format!("pin {}", expected[i].0)),
                "{failed:?}"
            );
        }
    }
}

#[test]
fn serve_stream_digests_equal_a_library_direct_replay() {
    let _serial = serial();
    let (r, logs) = run_logged(&tiny(DEFAULT_SEED, false), true);
    assert!(r.correct(), "{:?}", failed_checks(&r));
    assert!(logs.len() >= 16, "one log per tenant ever created");
    let (mut commands, mut rejected) = (0, 0);
    for log in &logs {
        let mut session = NetSession::new(log.spec.clone()).expect("tenant specs build");
        let mut digest = FNV_BASIS;
        for (i, cmd) in log.commands.iter().enumerate() {
            let line = match cmd {
                Some(cmd) => {
                    let record = session.apply(cmd);
                    rejected += usize::from(!record.status.is_applied());
                    record_line(&record)
                }
                None => peek_line(&session),
            };
            assert_eq!(
                Some(&line),
                log.lines.get(i),
                "tenant {} command {i} {cmd:?}",
                log.name
            );
            digest = fnv(fnv(digest, line.as_bytes()), b"\n");
        }
        commands += log.commands.len();
        assert_eq!(digest, log.digest, "tenant {} diverged", log.name);
    }
    assert!(commands > 100, "{commands} commands replayed");
    assert!(rejected > 0, "the mix exercises deterministic rejections");
}

#[test]
fn the_binary_rejects_bad_usage_without_a_result_line() {
    let bin = env!("CARGO_BIN_EXE_dsnet-perfbench");
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "serve_mix",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "serve_mix", "--seed", "1", "--seconds", "1"],
    ] {
        let out = Command::new(bin)
            .args(&args)
            .output()
            .expect("run the binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
