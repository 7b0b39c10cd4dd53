//! Building a [`SensorNetwork`] from a deployment description.

use crate::network::SensorNetwork;
use dsnet_cluster::{GroupId, McNet, ParentRule, SlotMode};
use dsnet_geom::{rng::derive_seed, Deployment, DeploymentConfig};
use dsnet_graph::{unit_disk, NodeId};
use rand::Rng as _;
use std::fmt;

/// How multicast groups are assigned at build time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupPlan {
    /// Number of groups, ids `0..groups`.
    pub groups: u16,
    /// Independent probability that a node joins each group.
    pub membership: f64,
}

/// Errors from [`NetworkBuilder::build`] and
/// [`NetSession::new`](crate::NetSession::new).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A node arrived with no earlier node in radio range, so the arrival
    /// replay cannot attach it. [`Deployment::generate`] never places such
    /// a node; the check guards the replay's precondition.
    DisconnectedArrival(NodeId),
    /// A session spec asked for a network of zero nodes, which has no
    /// sink to broadcast from.
    NoNodes,
    /// A session spec asked for a field of side zero.
    EmptyField,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DisconnectedArrival(n) => {
                write!(f, "node {n} arrived out of range of the existing network")
            }
            BuildError::NoNodes => f.write_str("a network needs at least one node"),
            BuildError::EmptyField => f.write_str("the field side must be positive"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Fluent builder for [`SensorNetwork`].
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    deployment: DeploymentConfig,
    parent_rule: ParentRule,
    slot_mode: SlotMode,
    group_plan: Option<GroupPlan>,
}

impl NetworkBuilder {
    /// The paper's setup: `n` nodes on the 10×10-unit field, 0.5-unit
    /// range, incrementally-connected arrivals.
    pub fn paper(n: usize, seed: u64) -> Self {
        Self {
            deployment: DeploymentConfig::paper(n, seed),
            parent_rule: ParentRule::default(),
            slot_mode: SlotMode::default(),
            group_plan: None,
        }
    }

    /// The paper's setup on a given square field side (8, 10 or 12).
    pub fn paper_field(side: f64, n: usize, seed: u64) -> Self {
        Self {
            deployment: DeploymentConfig::paper_field(side, n, seed),
            parent_rule: ParentRule::default(),
            slot_mode: SlotMode::default(),
            group_plan: None,
        }
    }

    /// Override the parent tie-break rule.
    pub fn parent_rule(mut self, r: ParentRule) -> Self {
        self.parent_rule = r;
        self
    }

    /// Override the slot interference model.
    pub fn slot_mode(mut self, m: SlotMode) -> Self {
        self.slot_mode = m;
        self
    }

    /// Assign multicast groups at build time.
    pub fn groups(mut self, plan: GroupPlan) -> Self {
        self.group_plan = Some(plan);
        self
    }

    /// Generate the deployment, replay the arrivals through
    /// `node-move-in`, and return the ready network.
    pub fn build(self) -> Result<SensorNetwork, BuildError> {
        let deployment = Deployment::generate(self.deployment);
        let full = unit_disk::graph_of_deployment(&deployment);
        let mut group_rng =
            dsnet_geom::rng::rng_from_seed(derive_seed(self.deployment.seed, 0xC0FFEE));

        let mut mc = McNet::new(dsnet_cluster::ClusterNet::new(
            self.parent_rule,
            self.slot_mode,
        ));
        let mut reports = Vec::with_capacity(deployment.len());
        for i in 0..deployment.len() {
            let u = NodeId(i as u32);
            let earlier: Vec<NodeId> = full
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&v| v < u)
                .collect();
            if i > 0 && earlier.is_empty() {
                return Err(BuildError::DisconnectedArrival(u));
            }
            let groups: Vec<GroupId> = match self.group_plan {
                Some(plan) => (0..plan.groups)
                    .filter(|_| group_rng.random_bool(plan.membership.clamp(0.0, 1.0)))
                    .collect(),
                None => Vec::new(),
            };
            let report = mc
                .move_in(if i == 0 { &[] } else { &earlier }, &groups)
                .expect("arrival replay cannot fail with validated neighbours");
            reports.push(report);
        }
        let positions = deployment.positions.clone();
        Ok(SensorNetwork::from_parts(
            deployment, positions, mc, reports,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_build_succeeds_and_spans() {
        let net = NetworkBuilder::paper(150, 3).build().unwrap();
        assert_eq!(net.len(), 150);
        assert_eq!(net.net().tree().len(), 150);
        dsnet_cluster::invariants::check_growth(net.net()).unwrap();
    }

    #[test]
    fn builds_are_deterministic() {
        let a = NetworkBuilder::paper(80, 9).build().unwrap();
        let b = NetworkBuilder::paper(80, 9).build().unwrap();
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn group_plan_populates_groups() {
        let net = NetworkBuilder::paper(100, 5)
            .groups(GroupPlan {
                groups: 3,
                membership: 0.3,
            })
            .build()
            .unwrap();
        let total: usize = (0..3).map(|g| net.mcnet().group_members(g).len()).sum();
        assert!(total > 0, "some nodes should have joined a group");
        net.mcnet().check_relay_consistency().unwrap();
    }

    #[test]
    fn paper_field_sizes() {
        for side in [8.0, 10.0, 12.0] {
            let net = NetworkBuilder::paper_field(side, 64, 1).build().unwrap();
            assert_eq!(net.len(), 64);
        }
    }
}
