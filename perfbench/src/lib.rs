//! The repository benchmark: four seeded, closed-loop workloads over the
//! public entry points of the `dsnet` library and the `dsnet-server`
//! daemon.
//!
//! | workload | one operation |
//! |---|---|
//! | [`bcast`] `bcast_10k` | improved-CFF broadcast on a static 10k-node field, warm knowledge |
//! | [`mobile`] `mobile_10k` | one mobility epoch on a 10k-node field plus a 2-channel sink broadcast probe |
//! | [`serve`] `serve_mix` | one wire command against an in-process daemon holding ~2,000 tenants |
//! | [`campaign`] `campaign_sweep` | one trial of a journaled campaign over the paper's Section 6 sizes |
//!
//! Every workload derives all of its inputs from the `--seed` argument,
//! measures for `--seconds` of wall time with one operation in flight per
//! load thread, and checks the simulation outputs as it goes (see
//! [`pins`]). An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) records spans around the calls into each layer from this
//! crate's own code ([`trace`]) and reports the per-layer metrics.
//! README.md in this directory documents the design and its evidence.

pub mod bcast;
pub mod campaign;
pub mod mobile;
pub mod pins;
pub mod report;
pub mod serve;
pub mod trace;

use std::time::Instant;

pub use report::{Metric, Report};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["bcast_10k", "mobile_10k", "serve_mix", "campaign_sweep"];

/// The seed the committed numbers in README.md were measured with.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of every tuning run; its pinned outputs are checked
/// like the default seed's.
pub const HELD_OUT_SEED: u64 = 20_071;

/// Problem size. `Tiny` shrinks every workload to a few seconds of CPU so
/// the crate's tests can run each one end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Test sizes.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Load-phase length in seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
    /// Expected pinned outputs; `None` looks them up in [`pins::expected`].
    pub pins: Option<Vec<(&'static str, u64)>>,
}

impl Params {
    /// An untraced full-size run.
    pub fn new(seed: u64, seconds: f64) -> Self {
        Self {
            seed,
            seconds,
            trace: false,
            size: Size::Full,
            pins: None,
        }
    }

    /// The pinned outputs to check `workload` against, if this seed has
    /// any.
    pub fn expected_pins(&self, workload: &str) -> Option<Vec<(&'static str, u64)>> {
        self.pins
            .clone()
            .or_else(|| pins::expected(workload, self.size, self.seed).map(<[_]>::to_vec))
    }
}

/// Run one workload by name; `None` for an unknown name.
pub fn run(workload: &str, p: &Params) -> Option<Report> {
    Some(match workload {
        "bcast_10k" => bcast::run(p),
        "mobile_10k" => mobile::run(p),
        "serve_mix" => serve::run(p),
        "campaign_sweep" => campaign::run(p),
        _ => return None,
    })
}

/// Whether operation `op` of a run is traced. A traced run traces every
/// other operation: the untraced ones in between measure the same state
/// sequence without tracing, which gives the tracing overhead without
/// confusing it with drift along the run.
pub fn traced_op(p: &Params, op: u64) -> bool {
    p.trace && op.is_multiple_of(2)
}

/// SplitMix64: the benchmark's own deterministic generator for operation
/// mixes (inputs to the program are drawn from it, never from the
/// program's own RNGs).
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Gen(dsnet::geom::rng::derive_seed(seed, stream))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a 64 offset basis.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
