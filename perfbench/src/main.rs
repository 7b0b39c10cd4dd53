//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the repository benchmark and prints its checks
//! and metrics, then one JSON result line. Exits 1 when an output check
//! fails and 2 on a usage error.

use dsnet_perfbench::{run, Params, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse::<u64>() {
                Ok(v) => seed = Some(v),
                Err(_) => return usage(&format!("bad --seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v <= 600.0 => seconds = Some(v),
                _ => return usage(&format!("bad --seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(&format!("bad --trace {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let mut params = Params::new(seed, seconds);
    params.trace = trace;
    let Some(report) = run(&workload, &params) else {
        return usage(&format!("unknown workload {workload}"));
    };
    println!(
        "workload {workload} seed {seed} seconds {seconds} trace {}",
        u8::from(trace)
    );
    print!("{}", report.render_text());
    println!("{}", report.render_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
