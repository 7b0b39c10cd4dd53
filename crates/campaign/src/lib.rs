#![warn(missing_docs)]

//! A parallel, deterministic experiment-campaign engine.
//!
//! Every figure in the evaluation is a *campaign*: a declarative grid of
//! independent simulation trials (protocol × network size × channel count
//! × failure template × churn template × channel loss × repair ×
//! mobility × repetition), each fully determined by a seed. This crate
//! expands a [`CampaignSpec`] into that grid, executes the trials on a
//! worker pool that publishes each condensed [`TrialRecord`] into its
//! trial's slot, folds the slots into per-cell aggregates, and renders
//! the result as JSON / CSV artifacts plus per-cell summary tables.
//!
//! # Determinism contract
//!
//! A campaign's results are **bit-identical regardless of worker count**:
//!
//! 1. Trial order is fixed by [`CampaignSpec::expand`] (a pure function
//!    of the spec); the trial's position in that order is its identity.
//! 2. Every trial owns two private seeds derived with the SplitMix64
//!    mixer ([`dsnet_geom::rng::derive_seed`]):
//!    - `scenario_seed`, keyed by `(base_seed, n, rep)` **only** — so
//!      every protocol / channel-count / failure variant of the same
//!      repetition runs on the *identical deployment*, and comparisons
//!      across protocols are paired;
//!    - `stream_seed`, keyed by `(base_seed, trial index)` — the trial's
//!      private RNG stream for victim draws and churn placement.
//!
//!    No RNG state is shared between trials, so execution order cannot
//!    influence any trial's outcome.
//! 3. Workers publish each finished record into a per-trial
//!    [`OnceLock`](std::sync::OnceLock) slot; the aggregation that feeds
//!    the artifacts folds those slots **in trial-index order** after the
//!    pool joins. Live progress reads only a shared count of finished
//!    trials.
//!
//! Consequently `--threads 1` and `--threads 8` produce byte-identical
//! JSON and CSV artifacts — CI asserts this on every push.
//!
//! # Crash consistency
//!
//! Determinism makes resume *verifiable*: because an uninterrupted run's
//! artifacts are a pure function of the spec, a campaign that crashes
//! mid-flight can be resumed from its [`journal`] (append-only, fsync'd,
//! `intent`/`commit` records per trial) and must reproduce those exact
//! bytes — which CI proves by killing campaigns at injected crash points
//! and diffing the resumed artifacts against an uninterrupted baseline.
//! See the [`journal`] module for the format and fingerprint rules.

pub mod engine;
pub mod journal;
pub mod report;
pub mod spec;

pub use engine::{
    run_campaign, run_campaign_resumable, CampaignResult, CellSummary, Progress, TrialRunner,
};
pub use journal::{
    read_journal, spec_fingerprint, Journal, JournalContents, JournalError, JOURNAL_SCHEMA,
};
pub use report::{render_csv, render_json, render_trials_csv, write_artifact};
pub use spec::{
    parse_repair, repair_label, CampaignSpec, ChurnTemplate, FailureTemplate, LossSpec,
    MobilitySpec, ProtocolSpec, Trial, TrialRecord,
};
