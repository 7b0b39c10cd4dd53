//! Concrete campaign execution: the [`dsnet_campaign`] engine wired to
//! [`NetworkBuilder`] deployments and the protocol runners.
//!
//! `dsnet-campaign` is deliberately generic — it knows grids, seeds,
//! worker pools and artifacts, but not how to simulate anything. This
//! module supplies the missing piece: [`run_trial`] builds the trial's
//! deployment from its `scenario_seed`, applies the churn and failure
//! templates using the trial's private `stream_seed`, runs the selected
//! protocol and condenses the outcome into a [`TrialRecord`].

use crate::builder::NetworkBuilder;
use crate::network::SensorNetwork;
use dsnet_campaign::{
    CampaignResult, CampaignSpec, ChurnTemplate, FailureTemplate, Journal, MobilitySpec, Progress,
    ProtocolSpec, Trial, TrialRecord,
};
use dsnet_cluster::repair::{RepairConfig, RepairError};
use dsnet_geom::rng::{derive_seed, rng_from_seed};
use dsnet_geom::{Deployment, DeploymentConfig, Point2};
use dsnet_graph::NodeId;
use dsnet_mobility::{
    GaussMarkov, GaussMarkovParams, MobileNetwork, MobilityConfig, MobilityModel, RandomWaypoint,
    WaypointParams,
};
use dsnet_protocols::runner::{Broadcast, Protocol, RunConfig};
use dsnet_radio::{FailurePlan, LossModel};
use rand::seq::SliceRandom as _;
use rand::Rng as _;

fn protocol_of(spec: ProtocolSpec) -> Protocol {
    match spec {
        ProtocolSpec::Dfo => Protocol::Dfo,
        ProtocolSpec::BasicCff => Protocol::BasicCff,
        ProtocolSpec::ImprovedCff => Protocol::ImprovedCff,
        ProtocolSpec::ReliableCff => Protocol::ReliableCff,
    }
}

/// Apply a churn template: `leaves` random non-sink departures, then
/// `joins` arrivals placed in radio range of surviving nodes. All draws
/// come from `rng` (the trial's private stream).
fn apply_churn(net: &mut SensorNetwork, churn: &ChurnTemplate, rng: &mut dsnet_geom::rng::Rng) {
    let range = net.deployment().config.range;
    for _ in 0..churn.leaves {
        let mut candidates: Vec<NodeId> = net
            .net()
            .tree()
            .nodes()
            .filter(|&u| u != net.sink())
            .collect();
        candidates.shuffle(rng);
        // move-out can defer under concurrent structural edge cases;
        // try candidates until one departs.
        for u in candidates {
            if net.leave(u).is_ok() {
                break;
            }
        }
    }
    for _ in 0..churn.joins {
        // A powered-up sensor lands near an existing node: pick an anchor
        // and offset within (0.7·range)·√2 ≤ range of it.
        for _attempt in 0..16 {
            let anchors: Vec<NodeId> = net.net().tree().nodes().collect();
            let Some(&anchor) = anchors.as_slice().choose(rng) else {
                break;
            };
            let at = net.position(anchor);
            let dx: f64 = rng.random_range(-0.7 * range..=0.7 * range);
            let dy: f64 = rng.random_range(-0.7 * range..=0.7 * range);
            if net.join(Point2::new(at.x + dx, at.y + dy), &[]).is_ok() {
                break;
            }
        }
    }
}

/// Draw a failure template's victims from `rng` (without replacement,
/// from the template's pool). The draw happens whether or not the trial
/// repairs, so `repair=off` / `repair=on` cells hit the same victims.
fn draw_victims(
    net: &SensorNetwork,
    template: &FailureTemplate,
    rng: &mut dsnet_geom::rng::Rng,
) -> Vec<NodeId> {
    let (count, backbone_only) = match *template {
        FailureTemplate::None => return Vec::new(),
        FailureTemplate::Backbone { count, .. } | FailureTemplate::BackboneOutage { count, .. } => {
            (count, true)
        }
        FailureTemplate::Random { count, .. } | FailureTemplate::RandomOutage { count, .. } => {
            (count, false)
        }
    };
    let mut pool: Vec<NodeId> = if backbone_only {
        net.net()
            .backbone_nodes()
            .into_iter()
            .filter(|&u| u != net.sink())
            .collect()
    } else {
        net.net()
            .tree()
            .nodes()
            .filter(|&u| u != net.sink())
            .collect()
    };
    pool.shuffle(rng);
    pool.truncate(count);
    pool
}

/// Instantiate a failure template as a concrete [`FailurePlan`] over the
/// already-drawn victims: permanent kills for the fail-stop variants,
/// bounded outage windows for the transient ones.
fn failure_plan(template: &FailureTemplate, victims: &[NodeId]) -> FailurePlan {
    let mut plan = FailurePlan::new();
    match *template {
        FailureTemplate::None => {}
        FailureTemplate::Backbone { round, .. } | FailureTemplate::Random { round, .. } => {
            for &v in victims {
                plan.kill_node(v, round);
            }
        }
        FailureTemplate::BackboneOutage {
            round, duration, ..
        }
        | FailureTemplate::RandomOutage {
            round, duration, ..
        } => {
            for &v in victims {
                plan.kill_node_for(v, round, duration);
            }
        }
    }
    plan
}

/// A mobile cell's deployment and the [`MobileNetwork`] built on it,
/// moving under the cell's model (random waypoint or Gauss–Markov). The
/// trajectory stream is keyed by the scenario seed (not the trial's
/// private stream seed) so every protocol / channel variant of the same
/// repetition rides the identical motion history.
pub(crate) fn mobile_network(trial: &Trial) -> (Deployment, MobileNetwork) {
    let d = Deployment::generate(DeploymentConfig::paper_field(
        trial.field_side,
        trial.n,
        trial.scenario_seed,
    ));
    let model_seed = derive_seed(trial.scenario_seed, 0x6D0B);
    let speed = trial.mobility.speed();
    let model: Box<dyn MobilityModel> = match trial.mobility {
        MobilitySpec::None => unreachable!("static cells have no motion model"),
        MobilitySpec::RandomWaypoint { pause, .. } => Box::new(RandomWaypoint::new(
            d.positions.clone(),
            d.config.region,
            WaypointParams {
                v_min: 0.5 * speed,
                v_max: 1.5 * speed,
                pause_epochs: pause,
            },
            model_seed,
        )),
        MobilitySpec::GaussMarkov { .. } => Box::new(GaussMarkov::new(
            d.positions.clone(),
            d.config.region,
            GaussMarkovParams {
                mean_speed: speed,
                memory: 0.75,
            },
            model_seed,
        )),
    };
    let mob = MobileNetwork::new(&d, model).expect("incremental deployments arrive connected");
    (d, mob)
}

/// Build the trial's network. Static cells use the incremental
/// [`NetworkBuilder`] deployment; mobile cells drive the *same* deployment
/// through the spec'd epochs of motion — structure maintained
/// incrementally by [`MobileNetwork`], invariants checked every epoch —
/// and measure the broadcast on the post-motion structure. Returns the
/// network plus the maintenance totals (reconfigurations, slot churn),
/// `None` for static cells.
fn build_network(trial: &Trial) -> (SensorNetwork, Option<u64>, Option<u64>) {
    if trial.mobility.is_none() {
        let net = NetworkBuilder::paper_field(trial.field_side, trial.n, trial.scenario_seed)
            .build()
            .expect("incremental deployments always build");
        return (net, None, None);
    }
    let (d, mut mob) = mobile_network(trial);
    let report = mob
        .run(
            u64::from(trial.mobility.epochs()),
            &MobilityConfig::default(),
        )
        .expect("maintenance preserves the paper's invariants");
    let build_reports = mob.build_reports().to_vec();
    let (mc, positions) = mob.into_parts();
    (
        SensorNetwork::from_parts(d, positions, mc, build_reports),
        Some(report.total_reconfigs()),
        Some(report.total_slot_churn()),
    )
}

/// Execute one campaign trial end-to-end. A pure function of the trial:
/// every random draw comes from the trial's own seeds, which is what lets
/// the engine run trials in any order on any number of threads.
pub fn run_trial(trial: &Trial) -> TrialRecord {
    let (mut net, reconfigs, slot_churn) = build_network(trial);
    let mut rng = rng_from_seed(trial.stream_seed);
    apply_churn(&mut net, &trial.churn, &mut rng);
    let victims = draw_victims(&net, &trial.failure, &mut rng);

    // repair=on models the self-healing network: fail-stop victims crash
    // silently *before* the measured broadcast, the detection-and-repair
    // protocol evicts them and re-homes their orphans, and the broadcast
    // then runs on the healed structure. Transient outages are left to
    // ride out their windows — there is nothing to evict.
    let mut repair_rounds = None;
    let failures = if trial.repair && !victims.is_empty() && !trial.failure.is_transient() {
        let mut total = 0u64;
        for &v in &victims {
            match net.repair_crash(v, &RepairConfig::default()) {
                Ok(report) => total += report.total_rounds(),
                // An earlier repair may already have dropped this victim
                // (it was an orphan that could not be re-homed).
                Err(RepairError::NotAttached(_)) => {}
                Err(e) => panic!("repair failed for {v:?}: {e:?}"),
            }
        }
        repair_rounds = Some(total);
        FailurePlan::new()
    } else {
        failure_plan(&trial.failure, &victims)
    };

    let cfg = RunConfig {
        channels: trial.channels,
        failures,
        loss: if trial.loss.is_none() {
            LossModel::none()
        } else {
            // The loss stream is keyed by the scenario seed (not the
            // per-trial stream seed) so paired protocol comparisons face
            // the same per-(link, round) drop pattern.
            LossModel::from_ppm(trial.loss.ppm, derive_seed(trial.scenario_seed, 0x1055))
        },
        max_retries: trial.max_retries,
        record_trace: trial.record_trace,
        ..RunConfig::default()
    };
    let req = Broadcast::new(protocol_of(trial.protocol), net.sink());
    let out = net.run(&req, &cfg).outcome;
    TrialRecord {
        rounds: out.rounds,
        delivered: out.delivered as u64,
        targets: out.targets as u64,
        targets_alive: out.targets_alive as u64,
        delivered_alive: out.delivered_alive as u64,
        t50: out.coverage.as_ref().and_then(|c| c.t50),
        t90: out.coverage.as_ref().and_then(|c| c.t90),
        t_full: out.coverage.as_ref().and_then(|c| c.t_full),
        repair_rounds,
        max_awake: out.energy.max_awake,
        mean_awake: out.energy.mean_awake,
        collisions: out.collisions.map(|c| c as u64),
        bound: out.bound,
        nodes: net.len() as u64,
        reconfigs,
        slot_churn,
    }
}

/// Run a campaign spec on the concrete trial runner.
///
/// `threads = 0` uses every available core; the results are identical
/// either way (see the `dsnet-campaign` determinism contract).
pub fn run(
    spec: &CampaignSpec,
    threads: usize,
    on_progress: Option<&(dyn Fn(Progress<'_>) + Sync)>,
) -> CampaignResult {
    dsnet_campaign::run_campaign(spec, &run_trial, threads, on_progress)
}

/// [`run`] with crash-consistency hooks: journal every trial's
/// intent/commit and/or skip trials whose results were recovered from a
/// journal. See
/// [`run_campaign_resumable`](dsnet_campaign::run_campaign_resumable)
/// for the contract.
pub fn run_resumable(
    spec: &CampaignSpec,
    threads: usize,
    on_progress: Option<&(dyn Fn(Progress<'_>) + Sync)>,
    journal: Option<&Journal>,
    completed: Option<Vec<Option<TrialRecord>>>,
) -> CampaignResult {
    dsnet_campaign::run_campaign_resumable(
        spec,
        &run_trial,
        threads,
        on_progress,
        journal,
        completed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnet_campaign::{render_json, LossSpec};

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new("tiny");
        spec.protocols = vec![ProtocolSpec::ImprovedCff, ProtocolSpec::Dfo];
        spec.ns = vec![40];
        spec.reps = 2;
        spec
    }

    #[test]
    fn artifacts_are_byte_identical_across_thread_counts() {
        let mut spec = tiny_spec();
        // Exercise the robustness axes too: the loss stream and repair
        // path must be as order-independent as the rest.
        spec.losses = vec![LossSpec::none(), LossSpec::from_probability(0.05)];
        spec.repair = vec![false, true];
        spec.failures = vec![
            FailureTemplate::None,
            FailureTemplate::Backbone { count: 1, round: 1 },
        ];
        let serial = run(&spec, 1, None);
        let parallel = run(&spec, 4, None);
        assert_eq!(render_json(&serial, true), render_json(&parallel, true));
        assert_eq!(serial.records, parallel.records);
    }

    #[test]
    fn protocols_share_deployments_within_a_rep() {
        let result = run(&tiny_spec(), 0, None);
        // Same (n, rep) across protocols → same target count (same net).
        let cff: Vec<_> = result
            .select(|t| t.protocol == ProtocolSpec::ImprovedCff)
            .collect();
        let dfo: Vec<_> = result.select(|t| t.protocol == ProtocolSpec::Dfo).collect();
        for ((tc, rc), (td, rd)) in cff.iter().zip(&dfo) {
            assert_eq!(tc.scenario_seed, td.scenario_seed);
            assert_eq!(rc.targets, rd.targets);
        }
    }

    #[test]
    fn failure_template_kills_reduce_delivery_or_not_but_run() {
        let mut spec = tiny_spec();
        spec.protocols = vec![ProtocolSpec::Dfo];
        spec.failures = vec![
            FailureTemplate::None,
            FailureTemplate::Backbone { count: 3, round: 1 },
        ];
        let result = run(&spec, 0, None);
        let clean = result
            .cell(
                ProtocolSpec::Dfo,
                1,
                FailureTemplate::None,
                ChurnTemplate::default(),
                LossSpec::none(),
                false,
                MobilitySpec::None,
                40,
            )
            .unwrap();
        let failed = result
            .cell(
                ProtocolSpec::Dfo,
                1,
                FailureTemplate::Backbone { count: 3, round: 1 },
                ChurnTemplate::default(),
                LossSpec::none(),
                false,
                MobilitySpec::None,
                40,
            )
            .unwrap();
        assert_eq!(clean.completed, clean.trials, "no-failure DFO completes");
        // Killing 3 backbone nodes at round 1 must cost DFO coverage.
        assert!(failed.delivery.mean < clean.delivery.mean);
    }

    #[test]
    fn reliable_cff_beats_basic_under_loss() {
        let mut spec = tiny_spec();
        spec.protocols = vec![ProtocolSpec::BasicCff, ProtocolSpec::ReliableCff];
        spec.losses = vec![LossSpec::from_probability(0.1)];
        spec.reps = 3;
        spec.max_retries = 4;
        let result = run(&spec, 0, None);
        let cell = |p| {
            result
                .cell(
                    p,
                    1,
                    FailureTemplate::None,
                    ChurnTemplate::default(),
                    LossSpec::from_probability(0.1),
                    false,
                    MobilitySpec::None,
                    40,
                )
                .unwrap()
        };
        let basic = cell(ProtocolSpec::BasicCff);
        let reliable = cell(ProtocolSpec::ReliableCff);
        assert!(
            reliable.delivery.mean > basic.delivery.mean,
            "retries must buy coverage under loss: rcff {} !> cff1 {}",
            reliable.delivery.mean,
            basic.delivery.mean
        );
    }

    #[test]
    fn repair_heals_fail_stop_cells() {
        let mut spec = tiny_spec();
        spec.protocols = vec![ProtocolSpec::ImprovedCff];
        spec.failures = vec![FailureTemplate::Backbone { count: 2, round: 1 }];
        spec.repair = vec![false, true];
        let result = run(&spec, 0, None);
        let cell = |repair| {
            result
                .cell(
                    ProtocolSpec::ImprovedCff,
                    1,
                    FailureTemplate::Backbone { count: 2, round: 1 },
                    ChurnTemplate::default(),
                    LossSpec::none(),
                    repair,
                    MobilitySpec::None,
                    40,
                )
                .unwrap()
        };
        let broken = cell(false);
        let healed = cell(true);
        // The healed network broadcasts to every survivor; the broken one
        // lost whole subtrees.
        assert_eq!(healed.completed, healed.trials);
        assert_eq!(healed.repaired, healed.trials);
        assert!(healed.repair_rounds.is_some());
        assert_eq!(broken.repaired, 0);
        assert!(healed.delivery_alive.mean >= broken.delivery_alive.mean);
        // Repaired trials report paid repair time.
        for (_, rec) in result.select(|t| t.repair) {
            assert!(rec.repair_rounds.unwrap() > 0);
        }
    }

    #[test]
    fn outage_template_is_transient_and_not_repaired() {
        let mut spec = tiny_spec();
        spec.protocols = vec![ProtocolSpec::ImprovedCff];
        spec.failures = vec![FailureTemplate::BackboneOutage {
            count: 2,
            round: 1,
            duration: 5,
        }];
        spec.repair = vec![true];
        let result = run(&spec, 0, None);
        for (_, rec) in result.select(|_| true) {
            // Transient victims revive; nothing was evicted.
            assert_eq!(rec.repair_rounds, None);
            assert_eq!(rec.nodes, 40);
            assert_eq!(rec.targets_alive, rec.targets);
        }
    }

    #[test]
    fn outage_ending_past_the_last_round_never_revives() {
        let records = |failure: &str| {
            let mut spec = tiny_spec();
            spec.protocols = vec![ProtocolSpec::ImprovedCff];
            spec.failures = vec![FailureTemplate::parse(failure).unwrap()];
            run(&spec, 0, None).records
        };
        // 2 + u64::MAX does not fit in a round: the outage lasts for good,
        // like one that ends long after the broadcast.
        let forever = records("bb1@2+18446744073709551615");
        assert_eq!(forever, records("bb1@2+1000000"));
        assert!(forever.iter().any(|r| !r.completed()), "{forever:?}");
    }

    #[test]
    fn mobile_cells_record_maintenance_and_complete() {
        let mut spec = tiny_spec();
        spec.protocols = vec![ProtocolSpec::ImprovedCff];
        spec.mobility = vec![
            MobilitySpec::None,
            MobilitySpec::random_waypoint(0.05, 15, 2),
            MobilitySpec::gauss_markov(0.04, 15),
        ];
        let result = run(&spec, 0, None);
        let mut moved = 0u64;
        for (t, rec) in result.select(|_| true) {
            if t.mobility.is_none() {
                assert_eq!(rec.reconfigs, None);
                assert_eq!(rec.slot_churn, None);
            } else {
                // Motion happened, was maintained, and the post-motion
                // structure still broadcasts to everyone.
                moved += rec.reconfigs.expect("mobile trials measure maintenance");
                assert!(rec.slot_churn.is_some());
                assert!(rec.completed(), "CFF must cover the maintained net");
                assert_eq!(rec.nodes, 40);
            }
        }
        assert!(moved > 0, "15 epochs of motion should reconfigure someone");
    }

    #[test]
    fn churn_template_changes_population() {
        let mut spec = tiny_spec();
        spec.protocols = vec![ProtocolSpec::ImprovedCff];
        spec.churn = vec![ChurnTemplate {
            joins: 4,
            leaves: 2,
        }];
        let result = run(&spec, 0, None);
        for (_, rec) in result.select(|_| true) {
            assert_eq!(rec.nodes, 40 + 4 - 2);
            assert!(rec.completed(), "CFF should cover the churned net");
        }
    }
}
