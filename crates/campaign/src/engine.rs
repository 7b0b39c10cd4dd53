//! The deterministic parallel execution engine.

use crate::journal::Journal;
use crate::spec::{
    repair_label, CampaignSpec, ChurnTemplate, FailureTemplate, LossSpec, MobilitySpec,
    ProtocolSpec, Trial, TrialRecord,
};
use dsnet_metrics::{Distribution, Summary};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Executes one trial. Implementations must be pure functions of the
/// trial (all randomness drawn from the trial's seeds) — the engine's
/// determinism contract depends on it.
pub trait TrialRunner: Sync {
    /// Run `trial` to completion and condense its outcome.
    fn run_trial(&self, trial: &Trial) -> TrialRecord;
}

impl<F: Fn(&Trial) -> TrialRecord + Sync> TrialRunner for F {
    fn run_trial(&self, trial: &Trial) -> TrialRecord {
        self(trial)
    }
}

/// Live progress handed to the optional observer after every trial.
#[derive(Debug, Clone, Copy)]
pub struct Progress<'a> {
    /// Trials finished so far (including this one).
    pub done: u64,
    /// Total trials in the campaign.
    pub total: u64,
    /// The trial that just finished.
    pub trial: &'a Trial,
    /// Its condensed record.
    pub record: &'a TrialRecord,
}

/// Deterministic per-cell aggregate over the cell's repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Protocol axis value.
    pub protocol: ProtocolSpec,
    /// Channel-count axis value.
    pub channels: u8,
    /// Failure-template axis value.
    pub failure: FailureTemplate,
    /// Churn-template axis value.
    pub churn: ChurnTemplate,
    /// Channel-loss axis value.
    pub loss: LossSpec,
    /// Repair axis value.
    pub repair: bool,
    /// Mobility axis value.
    pub mobility: MobilitySpec,
    /// Network-size axis value.
    pub n: usize,
    /// Repetitions aggregated.
    pub trials: usize,
    /// Repetitions that delivered to every target.
    pub completed: usize,
    /// Broadcast rounds (moments).
    pub rounds: Summary,
    /// Median broadcast rounds.
    pub rounds_p50: f64,
    /// 90th-percentile broadcast rounds.
    pub rounds_p90: f64,
    /// Delivery ratio per repetition.
    pub delivery: Summary,
    /// Delivery ratio over the targets alive at the end of each run.
    pub delivery_alive: Summary,
    /// Repetitions that repaired at least one failure.
    pub repaired: usize,
    /// Time-to-repair over the repetitions that repaired; `None` when
    /// none did.
    pub repair_rounds: Option<Summary>,
    /// Worst-node awake rounds.
    pub max_awake: Summary,
    /// Mean awake rounds.
    pub mean_awake: Summary,
    /// Analytic round bound.
    pub bound: Summary,
    /// Total receiver-side collisions; `None` if any repetition ran
    /// without a trace (partial sums would misrepresent the cell).
    pub collisions: Option<u64>,
    /// Structure reconfigurations during the mobility phase, over the
    /// repetitions that moved; `None` for static cells.
    pub reconfigs: Option<Summary>,
    /// Slot-assignment churn during the mobility phase, over the
    /// repetitions that moved; `None` for static cells.
    pub slot_churn: Option<Summary>,
}

impl CellSummary {
    /// Stable one-line label of the cell's axes.
    pub fn label(&self) -> String {
        format!(
            "{} k={} fail={} churn={} loss={} repair={} mob={} n={}",
            self.protocol.name(),
            self.channels,
            self.failure.label(),
            self.churn.label(),
            self.loss.label(),
            repair_label(self.repair),
            self.mobility.label(),
            self.n
        )
    }
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The spec that was run.
    pub spec: CampaignSpec,
    /// The expanded trial grid, in identity order.
    pub trials: Vec<Trial>,
    /// One record per trial, same order.
    pub records: Vec<TrialRecord>,
    /// Per-cell aggregates, in first-occurrence order of the grid.
    pub cells: Vec<CellSummary>,
    /// Wall-clock execution time (not part of the artifacts).
    pub elapsed: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

impl CampaignResult {
    /// Iterate `(trial, record)` pairs matching a predicate.
    pub fn select<'a>(
        &'a self,
        mut pred: impl FnMut(&Trial) -> bool + 'a,
    ) -> impl Iterator<Item = (&'a Trial, &'a TrialRecord)> {
        self.trials
            .iter()
            .zip(&self.records)
            .filter(move |(t, _)| pred(t))
    }

    /// The cell matching the given axes, if present.
    #[allow(clippy::too_many_arguments)]
    pub fn cell(
        &self,
        protocol: ProtocolSpec,
        channels: u8,
        failure: FailureTemplate,
        churn: ChurnTemplate,
        loss: LossSpec,
        repair: bool,
        mobility: MobilitySpec,
        n: usize,
    ) -> Option<&CellSummary> {
        self.cells.iter().find(|c| {
            c.protocol == protocol
                && c.channels == channels
                && c.failure == failure
                && c.churn == churn
                && c.loss == loss
                && c.repair == repair
                && c.mobility == mobility
                && c.n == n
        })
    }
}

/// The first trial of each cell, in first-occurrence order of the
/// expanded grid (a pure function of the spec).
fn cell_firsts(trials: &[Trial]) -> Vec<usize> {
    let mut firsts: Vec<usize> = Vec::new();
    for t in trials {
        if !firsts.iter().any(|&r| trials[r].same_cell(t)) {
            firsts.push(t.index);
        }
    }
    firsts
}

/// Execute `spec` on `threads` workers (`0` = all available cores) and
/// aggregate the results.
///
/// Workers claim trials off a shared atomic cursor, publish each record
/// into its trial's slot and count it for `on_progress`. Aggregation
/// folds the slots in trial-index order after the pool joins — see the
/// crate docs for why this makes the result independent of `threads`.
///
/// # Panics
///
/// Propagates panics from the trial runner (a failed trial fails the
/// campaign loudly rather than producing a partial artifact).
pub fn run_campaign(
    spec: &CampaignSpec,
    runner: &dyn TrialRunner,
    threads: usize,
    on_progress: Option<&(dyn Fn(Progress<'_>) + Sync)>,
) -> CampaignResult {
    run_campaign_resumable(spec, runner, threads, on_progress, None, None)
}

/// [`run_campaign`] with crash-consistency hooks: an optional journal
/// and an optional set of already-committed results to skip.
///
/// * `journal` — every worker records an `intent` frame before
///   executing a trial and a `commit` frame (embedding the finished
///   [`TrialRecord`]) after, each durable before the next step. A
///   journal append failure fails the campaign loudly: continuing
///   would silently forfeit crash consistency.
/// * `completed` — per-trial results recovered by
///   [`Journal::resume`](crate::journal::Journal::resume). Trials with
///   a `Some` entry are folded into the artifacts *without being
///   re-run or re-journaled*; everything else executes normally.
///
/// Because trial identity, seeding, and the aggregation fold are all
/// independent of scheduling, a resumed campaign's artifacts are
/// byte-identical to an uninterrupted run's — the property the
/// crash-injection suite verifies end to end.
pub fn run_campaign_resumable(
    spec: &CampaignSpec,
    runner: &dyn TrialRunner,
    threads: usize,
    on_progress: Option<&(dyn Fn(Progress<'_>) + Sync)>,
    journal: Option<&Journal>,
    completed: Option<Vec<Option<TrialRecord>>>,
) -> CampaignResult {
    let started = Instant::now();
    let trials = spec.expand();
    let slots: Vec<OnceLock<TrialRecord>> = (0..trials.len()).map(|_| OnceLock::new()).collect();

    // Prefill journaled results before any worker starts: their slots
    // are set (workers skip them) and count as done, so progress
    // reporting sees `done` start at the resume point.
    if let Some(completed) = &completed {
        assert_eq!(
            completed.len(),
            trials.len(),
            "completed prefill must cover the expanded grid"
        );
        for (i, rec) in completed.iter().enumerate() {
            if let Some(rec) = rec {
                slots[i]
                    .set(rec.clone())
                    .unwrap_or_else(|_| unreachable!("prefill slot {i} set twice"));
            }
        }
    }

    let remaining = slots.iter().filter(|s| s.get().is_none()).count();
    let finished = AtomicU64::new((trials.len() - remaining) as u64);
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
    .min(remaining.max(1));

    let cursor = AtomicUsize::new(0);
    let total = trials.len() as u64;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(trial) = trials.get(i) else { break };
                if slots[i].get().is_some() {
                    continue; // journaled as done before this run
                }
                if let Some(j) = journal {
                    j.record_intent(i)
                        .unwrap_or_else(|e| panic!("journal intent for trial {i}: {e}"));
                }
                let record = runner.run_trial(trial);
                if let Some(j) = journal {
                    j.record_commit(i, &record)
                        .unwrap_or_else(|e| panic!("journal commit for trial {i}: {e}"));
                }
                let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(observe) = on_progress {
                    observe(Progress {
                        done,
                        total,
                        trial,
                        record: &record,
                    });
                }
                slots[i]
                    .set(record)
                    .unwrap_or_else(|_| unreachable!("trial {i} claimed twice"));
            });
        }
    });

    let records: Vec<TrialRecord> = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.into_inner()
                .unwrap_or_else(|| panic!("trial {i} never ran"))
        })
        .collect();

    // Deterministic fold: per cell, gather its repetitions in trial order.
    let cells = cell_firsts(&trials)
        .into_iter()
        .map(|rep0| {
            let t0 = &trials[rep0];
            let members: Vec<&TrialRecord> = trials
                .iter()
                .zip(&records)
                .filter(|(t, _)| t.same_cell(t0))
                .map(|(_, r)| r)
                .collect();
            let rounds = Distribution::of_u64(members.iter().map(|r| r.rounds));
            let repairs: Vec<u64> = members.iter().filter_map(|r| r.repair_rounds).collect();
            let reconfigs: Vec<u64> = members.iter().filter_map(|r| r.reconfigs).collect();
            let slot_churn: Vec<u64> = members.iter().filter_map(|r| r.slot_churn).collect();
            CellSummary {
                protocol: t0.protocol,
                channels: t0.channels,
                failure: t0.failure,
                churn: t0.churn,
                loss: t0.loss,
                repair: t0.repair,
                mobility: t0.mobility,
                n: t0.n,
                trials: members.len(),
                completed: members.iter().filter(|r| r.completed()).count(),
                rounds_p50: rounds.median(),
                rounds_p90: rounds.percentile(90.0),
                rounds: rounds.summary(),
                delivery: Summary::of(members.iter().map(|r| r.delivery_ratio())),
                delivery_alive: Summary::of(members.iter().map(|r| r.delivery_ratio_alive())),
                repaired: repairs.len(),
                repair_rounds: if repairs.is_empty() {
                    None
                } else {
                    Some(Summary::of_u64(repairs.iter().copied()))
                },
                max_awake: Summary::of_u64(members.iter().map(|r| r.max_awake)),
                mean_awake: Summary::of(members.iter().map(|r| r.mean_awake)),
                bound: Summary::of_u64(members.iter().map(|r| r.bound)),
                collisions: members.iter().map(|r| r.collisions).sum::<Option<u64>>(),
                reconfigs: if reconfigs.is_empty() {
                    None
                } else {
                    Some(Summary::of_u64(reconfigs.iter().copied()))
                },
                slot_churn: if slot_churn.is_empty() {
                    None
                } else {
                    Some(Summary::of_u64(slot_churn.iter().copied()))
                },
            }
        })
        .collect();

    CampaignResult {
        spec: spec.clone(),
        trials,
        records,
        cells,
        elapsed: started.elapsed(),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic runner: outcome is a pure hash of the trial seeds, so
    /// any scheduling difference would show up as a changed record.
    fn synthetic(trial: &Trial) -> TrialRecord {
        let h = trial.scenario_seed ^ trial.stream_seed.rotate_left(17);
        TrialRecord {
            rounds: 10 + h % 90,
            delivered: trial.n as u64 - h % 3,
            targets: trial.n as u64,
            targets_alive: trial.n as u64 - 1,
            delivered_alive: trial.n as u64 - 1 - h % 3,
            t50: Some(3 + h % 5),
            t90: Some(8 + h % 5),
            t_full: None,
            repair_rounds: if trial.repair { Some(4 + h % 7) } else { None },
            max_awake: 5 + h % 20,
            mean_awake: (h % 1000) as f64 / 100.0,
            collisions: if trial.record_trace {
                Some(h % 4)
            } else {
                None
            },
            bound: 120,
            nodes: trial.n as u64,
            reconfigs: if trial.mobility.is_none() {
                None
            } else {
                Some(h % 40)
            },
            slot_churn: if trial.mobility.is_none() {
                None
            } else {
                Some(h % 100)
            },
        }
    }

    fn spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new("engine-test");
        spec.protocols = vec![ProtocolSpec::ImprovedCff, ProtocolSpec::Dfo];
        spec.ns = vec![30, 60];
        spec.reps = 4;
        spec
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let spec = spec();
        let serial = run_campaign(&spec, &synthetic, 1, None);
        for threads in [2, 4, 8] {
            let parallel = run_campaign(&spec, &synthetic, threads, None);
            assert_eq!(serial.records, parallel.records);
            assert_eq!(serial.cells, parallel.cells);
            assert_eq!(serial.trials, parallel.trials);
        }
    }

    #[test]
    fn every_trial_runs_exactly_once_under_contention() {
        let spec = spec();
        let calls = AtomicU64::new(0);
        let runner = |t: &Trial| {
            calls.fetch_add(1, Ordering::Relaxed);
            synthetic(t)
        };
        let result = run_campaign(&spec, &runner, 8, None);
        assert_eq!(calls.load(Ordering::Relaxed), spec.trial_count() as u64);
        assert_eq!(result.records.len(), spec.trial_count());
    }

    #[test]
    fn cells_group_reps_and_keep_grid_order() {
        let result = run_campaign(&spec(), &synthetic, 3, None);
        assert_eq!(result.cells.len(), 4); // 2 protocols × 2 sizes
        for cell in &result.cells {
            assert_eq!(cell.trials, 4);
        }
        assert_eq!(result.cells[0].protocol, ProtocolSpec::ImprovedCff);
        assert_eq!(result.cells[0].n, 30);
        assert_eq!(result.cells[1].n, 60);
        assert_eq!(result.cells[2].protocol, ProtocolSpec::Dfo);
        // Percentiles bracket the mean's support.
        let c = &result.cells[0];
        assert!(c.rounds.min <= c.rounds_p50 && c.rounds_p50 <= c.rounds_p90);
        assert!(c.rounds_p90 <= c.rounds.max);
    }

    #[test]
    fn progress_reports_every_trial() {
        let spec = spec();
        let seen = AtomicU64::new(0);
        let last = AtomicU64::new(0);
        run_campaign(
            &spec,
            &synthetic,
            4,
            Some(&|p: Progress<'_>| {
                seen.fetch_add(1, Ordering::Relaxed);
                last.fetch_max(p.done, Ordering::Relaxed);
                assert_eq!(p.total, spec.trial_count() as u64);
            }),
        );
        assert_eq!(seen.load(Ordering::Relaxed), spec.trial_count() as u64);
        assert_eq!(last.load(Ordering::Relaxed), spec.trial_count() as u64);
    }

    #[test]
    fn collisions_poisoned_by_one_untraced_rep() {
        let spec = spec();
        // Trace off for exactly one rep of each cell.
        let runner = |t: &Trial| {
            let mut r = synthetic(t);
            if t.rep == 1 {
                r.collisions = None;
            }
            r
        };
        let result = run_campaign(&spec, &runner, 2, None);
        for cell in &result.cells {
            assert_eq!(cell.collisions, None);
        }
    }

    #[test]
    fn select_filters_pairs() {
        let result = run_campaign(&spec(), &synthetic, 2, None);
        let dfo: Vec<_> = result.select(|t| t.protocol == ProtocolSpec::Dfo).collect();
        assert_eq!(dfo.len(), 8);
        assert!(dfo.iter().all(|(t, _)| t.protocol == ProtocolSpec::Dfo));
        let cell = result
            .cell(
                ProtocolSpec::Dfo,
                1,
                FailureTemplate::None,
                ChurnTemplate::default(),
                LossSpec::none(),
                false,
                MobilitySpec::None,
                30,
            )
            .expect("cell exists");
        assert_eq!(cell.trials, 4);
    }

    #[test]
    fn mobility_metrics_aggregate_only_over_mobile_cells() {
        let mut spec = spec();
        spec.mobility = vec![
            MobilitySpec::None,
            MobilitySpec::random_waypoint(0.05, 10, 2),
        ];
        let result = run_campaign(&spec, &synthetic, 2, None);
        assert_eq!(result.cells.len(), 8);
        for cell in &result.cells {
            if cell.mobility.is_none() {
                assert_eq!(cell.reconfigs, None);
                assert_eq!(cell.slot_churn, None);
            } else {
                assert!(cell.reconfigs.is_some());
                assert!(cell.slot_churn.is_some());
            }
        }
    }

    #[test]
    fn resumed_runs_reproduce_uninterrupted_results() {
        use crate::journal::{read_journal, spec_fingerprint, Journal};
        let spec = spec();
        let baseline = run_campaign(&spec, &synthetic, 2, None);
        let path = std::env::temp_dir().join(format!(
            "dsnet-engine-resume-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let fp = spec_fingerprint(&spec);
        let journal = Journal::create(&path, fp, spec.trial_count()).expect("create journal");
        let journaled = run_campaign_resumable(&spec, &synthetic, 2, None, Some(&journal), None);
        drop(journal);
        assert_eq!(journaled.records, baseline.records);
        let contents = read_journal(&path).expect("read journal");
        assert_eq!(contents.committed_count(), spec.trial_count());
        // Simulate crashes at several points by forgetting a suffix of
        // the commits, then resume: records and cells must be identical
        // to the uninterrupted run at multiple thread counts.
        for keep in [0, 1, spec.trial_count() / 2, spec.trial_count() - 1] {
            let mut completed = contents.completed();
            for slot in completed.iter_mut().skip(keep) {
                *slot = None;
            }
            for threads in [1, 3] {
                let resumed = run_campaign_resumable(
                    &spec,
                    &synthetic,
                    threads,
                    None,
                    None,
                    Some(completed.clone()),
                );
                assert_eq!(resumed.records, baseline.records, "keep={keep}");
                assert_eq!(resumed.cells, baseline.cells, "keep={keep}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prefilled_trials_never_rerun() {
        let spec = spec();
        let total = spec.trial_count();
        let full = run_campaign(&spec, &synthetic, 2, None);
        let mut completed: Vec<Option<TrialRecord>> =
            full.records.iter().cloned().map(Some).collect();
        for slot in completed.iter_mut().skip(total / 2) {
            *slot = None;
        }
        let calls = AtomicU64::new(0);
        let runner = |t: &Trial| {
            calls.fetch_add(1, Ordering::Relaxed);
            synthetic(t)
        };
        let resumed = run_campaign_resumable(&spec, &runner, 4, None, None, Some(completed));
        assert_eq!(
            calls.load(Ordering::Relaxed) as usize,
            total - total / 2,
            "only the non-journaled tail executes"
        );
        assert_eq!(resumed.records, full.records);
    }

    #[test]
    fn repair_rounds_aggregate_only_over_repairing_reps() {
        let mut spec = spec();
        spec.repair = vec![false, true];
        let result = run_campaign(&spec, &synthetic, 2, None);
        for cell in &result.cells {
            if cell.repair {
                assert_eq!(cell.repaired, cell.trials);
                assert!(cell.repair_rounds.is_some());
            } else {
                assert_eq!(cell.repaired, 0);
                assert_eq!(cell.repair_rounds, None);
            }
        }
    }
}
