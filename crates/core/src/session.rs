//! The tenant session facade: a scripted command surface over one
//! [`SensorNetwork`].
//!
//! A [`NetSession`] owns a network plus a deterministic command executor
//! in the step-executor idiom: every command is validated, executed with
//! a bounded retry budget where retrying makes sense, and condensed into
//! a structured [`CommandRecord`] with typed fields and a wall-clock
//! timestamp. The ordered records form the session's *event stream*.
//!
//! The same executor backs two transports:
//!
//! * the `dsnet-server` daemon applies wire commands to hosted sessions;
//! * `dsnet script` applies the identical commands directly against the
//!   library.
//!
//! Because both paths run this exact code, a scripted command sequence
//! produces **byte-identical** deterministic stream renderings either way
//! ([`render_stream`] with `include_timing = false`) — the contract CI
//! pins. Wall-clock microseconds ride on every record but are excluded
//! from the deterministic rendering, mirroring the perf ledger's
//! counters-vs-timing split.

use crate::builder::{BuildError, GroupPlan, NetworkBuilder};
use crate::network::SensorNetwork;
use dsnet_cluster::repair::RepairConfig;
use dsnet_cluster::GroupId;
use dsnet_codec::write_escaped;
use dsnet_geom::rng::{derive_seed, rng_from_seed};
use dsnet_geom::Point2;
use dsnet_graph::NodeId;
use dsnet_protocols::runner::{Broadcast, MulticastSlots, Protocol, RunConfig};
use dsnet_radio::loss::PPM_SCALE;
use dsnet_radio::{FailurePlan, LossModel};
use rand::Rng as _;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// Stream-format identifier emitted in the header line of every rendered
/// event stream.
pub const STREAM_SCHEMA: &str = "dsnet-session/1";

/// Largest `retries` a broadcast accepts. Attempt `a` of command `seq`
/// salts its loss stream with `(seq << 8) | (a % 256)`, so the at most
/// 256 attempts of one command take distinct low bytes and never draw
/// another command's stream.
const MAX_RETRIES: u32 = 255;

/// How a session's network is built. All quantities are integers (milli-
/// units, ppm) so wire round-trips and stream renderings are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Deployment size.
    pub nodes: usize,
    /// Deployment + command-stream seed.
    pub seed: u64,
    /// Field side in milli-units (the paper's 10×10 field = `10_000`).
    pub field_milli: u32,
    /// Multicast groups (`0` = none).
    pub groups: u16,
    /// Per-group membership probability in parts-per-million.
    pub membership_ppm: u32,
}

impl Default for SessionSpec {
    fn default() -> Self {
        Self {
            nodes: 60,
            seed: 1,
            field_milli: 10_000,
            groups: 0,
            membership_ppm: 100_000,
        }
    }
}

/// One command a tenant can apply to its session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionCommand {
    /// Run a broadcast and record its outcome. Nodes in the session's
    /// killed set crash at round 1 of the run. When `min_delivery_ppm`
    /// is nonzero the command retries (fresh attempt-salted loss stream)
    /// until the delivery ratio meets the floor or `retries` extra
    /// attempts are exhausted.
    Broadcast {
        /// Protocol to run.
        protocol: Protocol,
        /// Source node (`None` = the sink).
        source: Option<u32>,
        /// Radio channels `k ≥ 1`.
        channels: u8,
        /// Per-link Bernoulli loss in parts-per-million.
        loss_ppm: u32,
        /// Extra attempts allowed when chasing `min_delivery_ppm`, at
        /// most 255 (a larger budget is rejected before any run). The
        /// same value is also the reliable flood's NACK retry budget
        /// (`RunConfig::max_retries`, read by `rcff` only). The wire
        /// default is 0, so an `rcff` broadcast that omits it runs one
        /// epoch and no retries, while the CLI's `--retries` defaults
        /// to 2.
        retries: u32,
        /// Minimum acceptable delivery ratio in parts-per-million
        /// (`0` = accept any outcome on the first attempt).
        min_delivery_ppm: u32,
    },
    /// Run a multicast to `group` and record its outcome.
    Multicast {
        /// Target group.
        group: GroupId,
        /// Source node (`None` = the sink).
        source: Option<u32>,
    },
    /// A new sensor powers up at the given milli-coordinates and joins
    /// via `node-move-in`.
    MoveIn {
        /// X coordinate in milli-units.
        x_milli: i64,
        /// Y coordinate in milli-units.
        y_milli: i64,
        /// Group memberships for the newcomer.
        groups: Vec<GroupId>,
    },
    /// A sensor powers down and leaves via `node-move-out`.
    MoveOut {
        /// The departing node.
        node: u32,
    },
    /// Mark a node crashed: it stays in the structure but is dead in
    /// every subsequent broadcast until revived or repaired.
    Kill {
        /// The crashing node.
        node: u32,
    },
    /// Clear a node's crashed mark (transient outage ended).
    Revive {
        /// The reviving node.
        node: u32,
    },
    /// Run the silent-crash detection/repair protocol against a node:
    /// evicts it from the structure and re-homes its orphans.
    Repair {
        /// The node to detect-and-evict.
        node: u32,
    },
    /// Drive seeded epochs of motion through the reconfiguration path:
    /// each epoch, `movers` nodes take a random step of `step_milli`
    /// milli-units and are re-homed via `node-move-out` + `node-move-in`.
    Mobility {
        /// Number of motion epochs.
        epochs: u32,
        /// Nodes moved per epoch.
        movers: u32,
        /// Step length in milli-units.
        step_milli: u32,
    },
    /// Record the current versioned structure summary (served through
    /// the knowledge cache).
    Snapshot,
}

impl SessionCommand {
    /// Stable command label used in records and stream renderings.
    pub fn kind(&self) -> &'static str {
        match self {
            SessionCommand::Broadcast { .. } => "broadcast",
            SessionCommand::Multicast { .. } => "multicast",
            SessionCommand::MoveIn { .. } => "move_in",
            SessionCommand::MoveOut { .. } => "move_out",
            SessionCommand::Kill { .. } => "kill",
            SessionCommand::Revive { .. } => "revive",
            SessionCommand::Repair { .. } => "repair",
            SessionCommand::Mobility { .. } => "mobility",
            SessionCommand::Snapshot => "snapshot",
        }
    }
}

/// Outcome classification of one applied command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandStatus {
    /// The command executed and mutated/queried the session.
    Applied,
    /// Validation or execution rejected the command; the session is
    /// unchanged except for the record itself. The reason is
    /// deterministic text.
    Rejected(String),
}

impl CommandStatus {
    /// Whether the command was applied.
    pub fn is_applied(&self) -> bool {
        matches!(self, CommandStatus::Applied)
    }
}

/// One structured entry of a session's event stream (the `StepResult` of
/// the step-executor idiom).
#[derive(Debug, Clone, PartialEq)]
pub struct CommandRecord {
    /// Position in the session's command sequence (0-based).
    pub seq: u64,
    /// Command label ([`SessionCommand::kind`]).
    pub kind: &'static str,
    /// Applied or rejected (with a deterministic reason).
    pub status: CommandStatus,
    /// Attempts consumed (≥ 1; > 1 only for retried broadcasts).
    pub attempts: u32,
    /// Wall-clock execution time in microseconds (timing — excluded
    /// from deterministic renderings).
    pub wall_us: u64,
    /// Typed deterministic outcome fields, in a stable order.
    pub fields: Vec<(String, i64)>,
}

/// A hosted tenant session: one network plus its executor state.
#[derive(Debug)]
pub struct NetSession {
    spec: SessionSpec,
    net: SensorNetwork,
    /// Nodes currently marked crashed (dead in every broadcast).
    killed: BTreeSet<NodeId>,
    seq: u64,
    records: Vec<CommandRecord>,
}

impl NetSession {
    /// Build a session from its spec. A spec of zero nodes or a zero
    /// field side is refused before anything is built.
    pub fn new(spec: SessionSpec) -> Result<Self, BuildError> {
        if spec.nodes == 0 {
            return Err(BuildError::NoNodes);
        }
        if spec.field_milli == 0 {
            return Err(BuildError::EmptyField);
        }
        let mut b = NetworkBuilder::paper_field(
            f64::from(spec.field_milli) / 1000.0,
            spec.nodes,
            spec.seed,
        );
        if spec.groups > 0 {
            b = b.groups(GroupPlan {
                groups: spec.groups,
                membership: f64::from(spec.membership_ppm) / 1e6,
            });
        }
        let net = b.build()?;
        Ok(Self {
            spec,
            net,
            killed: BTreeSet::new(),
            seq: 0,
            records: Vec::new(),
        })
    }

    /// The spec the session was created from.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The underlying network (read-only).
    pub fn network(&self) -> &SensorNetwork {
        &self.net
    }

    /// The event stream so far, in application order.
    pub fn records(&self) -> &[CommandRecord] {
        &self.records
    }

    /// Apply one command: validate, execute (with bounded retries where
    /// the command supports them), record, and return the record.
    pub fn apply(&mut self, cmd: &SessionCommand) -> CommandRecord {
        let seq = self.seq;
        self.seq += 1;
        let start = Instant::now();
        let (status, attempts, fields) = self.execute(seq, cmd);
        let record = CommandRecord {
            seq,
            kind: cmd.kind(),
            status,
            attempts,
            wall_us: start.elapsed().as_micros() as u64,
            fields,
        };
        self.records.push(record.clone());
        record
    }

    fn execute(
        &mut self,
        seq: u64,
        cmd: &SessionCommand,
    ) -> (CommandStatus, u32, Vec<(String, i64)>) {
        match cmd {
            SessionCommand::Broadcast {
                protocol,
                source,
                channels,
                loss_ppm,
                retries,
                min_delivery_ppm,
            } => self.exec_broadcast(
                seq,
                *protocol,
                *source,
                *channels,
                *loss_ppm,
                *retries,
                *min_delivery_ppm,
            ),
            SessionCommand::Multicast { group, source } => self.exec_multicast(*group, *source),
            SessionCommand::MoveIn {
                x_milli,
                y_milli,
                groups,
            } => self.exec_move_in(*x_milli, *y_milli, groups),
            SessionCommand::MoveOut { node } => self.exec_move_out(*node),
            SessionCommand::Kill { node } => self.exec_kill(*node),
            SessionCommand::Revive { node } => self.exec_revive(*node),
            SessionCommand::Repair { node } => self.exec_repair(*node),
            SessionCommand::Mobility {
                epochs,
                movers,
                step_milli,
            } => self.exec_mobility(seq, *epochs, *movers, *step_milli),
            SessionCommand::Snapshot => self.exec_snapshot(),
        }
    }

    fn resolve_source(&self, source: Option<u32>) -> Result<NodeId, String> {
        let id = match source {
            None => return Ok(self.net.sink()),
            Some(id) => NodeId(id),
        };
        if self.net.net().tree().contains(id) {
            Ok(id)
        } else {
            Err(format!("source {} is not attached", id.0))
        }
    }

    fn failure_plan(&self) -> FailurePlan {
        let mut plan = FailurePlan::new();
        for &v in &self.killed {
            plan.kill_node(v, 1);
        }
        plan
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_broadcast(
        &mut self,
        seq: u64,
        protocol: Protocol,
        source: Option<u32>,
        channels: u8,
        loss_ppm: u32,
        retries: u32,
        min_delivery_ppm: u32,
    ) -> (CommandStatus, u32, Vec<(String, i64)>) {
        if channels == 0 {
            return (
                CommandStatus::Rejected("channels must be >= 1".into()),
                1,
                Vec::new(),
            );
        }
        if loss_ppm > PPM_SCALE {
            return (
                CommandStatus::Rejected(format!("loss_ppm must be <= {PPM_SCALE}")),
                1,
                Vec::new(),
            );
        }
        if retries > MAX_RETRIES {
            return (
                CommandStatus::Rejected(format!("retries must be <= {MAX_RETRIES}")),
                1,
                Vec::new(),
            );
        }
        let src = match self.resolve_source(source) {
            Ok(s) => s,
            Err(e) => return (CommandStatus::Rejected(e), 1, Vec::new()),
        };
        if self.killed.contains(&src) {
            return (
                CommandStatus::Rejected(format!("source {} is killed", src.0)),
                1,
                Vec::new(),
            );
        }
        let max_attempts = retries + 1;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // Each attempt draws a fresh, deterministic loss stream keyed
            // by (session seed, command seq, attempt).
            let loss = if loss_ppm == 0 {
                LossModel::none()
            } else {
                LossModel::from_ppm(
                    loss_ppm,
                    derive_seed(self.spec.seed, (seq << 8) | u64::from(attempt % 256)),
                )
            };
            let cfg = RunConfig {
                channels,
                failures: self.failure_plan(),
                loss,
                max_retries: retries,
                record_trace: true,
                ..RunConfig::default()
            };
            let out = self.net.run(&Broadcast::new(protocol, src), &cfg).outcome;
            let delivery_ppm = (out.delivery_ratio() * 1e6).round() as i64;
            let fields = vec![
                ("rounds".into(), out.rounds as i64),
                ("delivered".into(), out.delivered as i64),
                ("targets".into(), out.targets as i64),
                ("collisions".into(), out.collisions.map_or(-1, |c| c as i64)),
                ("max_awake".into(), out.max_awake() as i64),
                ("delivery_ppm".into(), delivery_ppm),
                ("version".into(), self.net.structure_version() as i64),
            ];
            if delivery_ppm as u64 >= u64::from(min_delivery_ppm) {
                return (CommandStatus::Applied, attempt, fields);
            }
            if attempt >= max_attempts {
                return (
                    CommandStatus::Rejected(format!(
                        "delivery {delivery_ppm} ppm below floor {min_delivery_ppm} after {attempt} attempts"
                    )),
                    attempt,
                    fields,
                );
            }
        }
    }

    fn exec_multicast(
        &mut self,
        group: GroupId,
        source: Option<u32>,
    ) -> (CommandStatus, u32, Vec<(String, i64)>) {
        if self.spec.groups == 0 || group >= self.spec.groups {
            return (
                CommandStatus::Rejected(format!(
                    "unknown group {group} (session has {})",
                    self.spec.groups
                )),
                1,
                Vec::new(),
            );
        }
        let src = match self.resolve_source(source) {
            Ok(s) => s,
            Err(e) => return (CommandStatus::Rejected(e), 1, Vec::new()),
        };
        let cfg = RunConfig {
            failures: self.failure_plan(),
            ..RunConfig::default()
        };
        let req = Broadcast::multicast(src, group, MulticastSlots::RelayPruned);
        let out = self.net.run(&req, &cfg).outcome;
        let fields = vec![
            ("group".into(), i64::from(group)),
            ("rounds".into(), out.rounds as i64),
            ("delivered".into(), out.delivered as i64),
            ("targets".into(), out.targets as i64),
            ("max_awake".into(), out.max_awake() as i64),
            ("version".into(), self.net.structure_version() as i64),
        ];
        (CommandStatus::Applied, 1, fields)
    }

    fn exec_move_in(
        &mut self,
        x_milli: i64,
        y_milli: i64,
        groups: &[GroupId],
    ) -> (CommandStatus, u32, Vec<(String, i64)>) {
        let p = Point2::new(x_milli as f64 / 1000.0, y_milli as f64 / 1000.0);
        match self.net.join(p, groups) {
            Ok(report) => {
                let fields = vec![
                    ("node".into(), i64::from(report.node.0)),
                    (
                        "parent".into(),
                        report.parent.map_or(-1, |p| i64::from(p.0)),
                    ),
                    ("cost".into(), report.cost.total() as i64),
                    ("nodes".into(), self.net.len() as i64),
                    ("version".into(), self.net.structure_version() as i64),
                ];
                (CommandStatus::Applied, 1, fields)
            }
            Err(e) => (
                CommandStatus::Rejected(format!("move_in: {e:?}")),
                1,
                Vec::new(),
            ),
        }
    }

    fn exec_move_out(&mut self, node: u32) -> (CommandStatus, u32, Vec<(String, i64)>) {
        let id = NodeId(node);
        match self.net.leave(id) {
            Ok(report) => {
                self.killed.remove(&id);
                let fields = vec![
                    ("node".into(), i64::from(node)),
                    ("rehomed".into(), report.rehomed.len() as i64),
                    ("cost".into(), report.cost.total() as i64),
                    ("nodes".into(), self.net.len() as i64),
                    ("version".into(), self.net.structure_version() as i64),
                ];
                (CommandStatus::Applied, 1, fields)
            }
            Err(e) => (
                CommandStatus::Rejected(format!("move_out: {e:?}")),
                1,
                Vec::new(),
            ),
        }
    }

    fn exec_kill(&mut self, node: u32) -> (CommandStatus, u32, Vec<(String, i64)>) {
        let id = NodeId(node);
        if !self.net.net().tree().contains(id) {
            return (
                CommandStatus::Rejected(format!("node {node} is not attached")),
                1,
                Vec::new(),
            );
        }
        if id == self.net.sink() {
            return (
                CommandStatus::Rejected("cannot kill the sink".into()),
                1,
                Vec::new(),
            );
        }
        if !self.killed.insert(id) {
            return (
                CommandStatus::Rejected(format!("node {node} is already killed")),
                1,
                Vec::new(),
            );
        }
        let fields = vec![
            ("node".into(), i64::from(node)),
            ("killed_total".into(), self.killed.len() as i64),
        ];
        (CommandStatus::Applied, 1, fields)
    }

    fn exec_revive(&mut self, node: u32) -> (CommandStatus, u32, Vec<(String, i64)>) {
        let id = NodeId(node);
        if !self.killed.remove(&id) {
            return (
                CommandStatus::Rejected(format!("node {node} is not killed")),
                1,
                Vec::new(),
            );
        }
        let fields = vec![
            ("node".into(), i64::from(node)),
            ("killed_total".into(), self.killed.len() as i64),
        ];
        (CommandStatus::Applied, 1, fields)
    }

    fn exec_repair(&mut self, node: u32) -> (CommandStatus, u32, Vec<(String, i64)>) {
        let id = NodeId(node);
        match self.net.repair_crash(id, &RepairConfig::default()) {
            Ok(report) => {
                self.killed.remove(&id);
                let fields = vec![
                    ("node".into(), i64::from(node)),
                    ("orphaned".into(), report.orphaned as i64),
                    ("rehomed".into(), report.rehomed.len() as i64),
                    ("lost".into(), report.lost.len() as i64),
                    ("slot_churn".into(), report.slot_churn as i64),
                    ("detection_rounds".into(), report.detection_rounds as i64),
                    ("repair_rounds".into(), report.repair_rounds() as i64),
                    ("nodes".into(), self.net.len() as i64),
                    ("version".into(), self.net.structure_version() as i64),
                ];
                (CommandStatus::Applied, 1, fields)
            }
            Err(e) => (
                CommandStatus::Rejected(format!("repair: {e:?}")),
                1,
                Vec::new(),
            ),
        }
    }

    fn exec_mobility(
        &mut self,
        seq: u64,
        epochs: u32,
        movers: u32,
        step_milli: u32,
    ) -> (CommandStatus, u32, Vec<(String, i64)>) {
        if epochs == 0 || movers == 0 {
            return (
                CommandStatus::Rejected("epochs and movers must be >= 1".into()),
                1,
                Vec::new(),
            );
        }
        let side = f64::from(self.spec.field_milli) / 1000.0;
        let step = f64::from(step_milli) / 1000.0;
        let (mut attempted, mut moved, mut rejected, mut lost) = (0i64, 0i64, 0i64, 0i64);
        for epoch in 0..u64::from(epochs) {
            let mut rng = rng_from_seed(derive_seed(self.spec.seed, (seq << 24) | epoch));
            for _ in 0..movers {
                let sink = self.net.sink();
                let candidates: Vec<NodeId> = self
                    .net
                    .net()
                    .tree()
                    .nodes()
                    .filter(|&u| u != sink)
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                attempted += 1;
                let u = candidates[rng.random_range(0..candidates.len())];
                let here = self.net.position(u);
                let theta = rng.random_range(0.0..std::f64::consts::TAU);
                let target = Point2::new(
                    (here.x + step * theta.cos()).clamp(0.0, side),
                    (here.y + step * theta.sin()).clamp(0.0, side),
                );
                if self.net.leave(u).is_err() {
                    rejected += 1;
                    continue;
                }
                self.killed.remove(&u);
                if self.net.join(target, &[]).is_ok() {
                    moved += 1;
                } else if self.net.join(here, &[]).is_ok() {
                    // Out of range at the target: the node snaps back to
                    // where it was (fresh id, same position).
                    rejected += 1;
                } else {
                    lost += 1;
                }
            }
        }
        let fields = vec![
            ("epochs".into(), i64::from(epochs)),
            ("attempted".into(), attempted),
            ("moved".into(), moved),
            ("rejected".into(), rejected),
            ("lost".into(), lost),
            ("nodes".into(), self.net.len() as i64),
            ("version".into(), self.net.structure_version() as i64),
        ];
        (CommandStatus::Applied, 1, fields)
    }

    fn exec_snapshot(&mut self) -> (CommandStatus, u32, Vec<(String, i64)>) {
        let k = self.net.knowledge();
        let (hits, misses, patched) = self.net.knowledge_stats();
        let fields = vec![
            ("version".into(), self.net.structure_version() as i64),
            ("nodes".into(), k.nodes as i64),
            ("backbone".into(), k.backbone_size as i64),
            ("height".into(), i64::from(k.height)),
            ("delta_b".into(), i64::from(k.delta_b)),
            ("delta_l".into(), i64::from(k.delta_l)),
            ("cache_hits".into(), hits as i64),
            ("cache_misses".into(), misses as i64),
            ("cache_patched".into(), patched as i64),
        ];
        (CommandStatus::Applied, 1, fields)
    }
}

/// Render one record as a single JSON line. With `include_timing = false`
/// the wall-clock field is omitted and the line is deterministic.
pub fn render_record(r: &CommandRecord, include_timing: bool) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(s, "{{\"seq\": {}, \"cmd\": \"{}\"", r.seq, r.kind);
    match &r.status {
        CommandStatus::Applied => s.push_str(", \"status\": \"ok\""),
        CommandStatus::Rejected(reason) => {
            s.push_str(", \"status\": \"rejected\", \"reason\": \"");
            write_escaped(&mut s, reason);
            s.push('"');
        }
    }
    let _ = write!(s, ", \"attempts\": {}", r.attempts);
    if include_timing {
        let _ = write!(s, ", \"wall_us\": {}", r.wall_us);
    }
    s.push_str(", \"fields\": {");
    for (i, (k, v)) in r.fields.iter().enumerate() {
        s.push_str(if i == 0 { "\"" } else { ", \"" });
        write_escaped(&mut s, k);
        let _ = write!(s, "\": {v}");
    }
    s.push_str("}}");
    s
}

/// Render a session's full event stream: a header line describing the
/// spec, then one line per record. With `include_timing = false` the
/// result is a pure function of `(spec, command sequence)` — the
/// byte-identical server-vs-library contract compares exactly this.
pub fn render_stream(
    spec: &SessionSpec,
    records: &[CommandRecord],
    include_timing: bool,
) -> String {
    let mut s = String::with_capacity(64 + 128 * records.len());
    let _ = writeln!(
        s,
        "{{\"stream\": \"{STREAM_SCHEMA}\", \"nodes\": {}, \"seed\": {}, \"field_milli\": {}, \"groups\": {}, \"membership_ppm\": {}}}",
        spec.nodes, spec.seed, spec.field_milli, spec.groups, spec.membership_ppm
    );
    for r in records {
        s.push_str(&render_record(r, include_timing));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(nodes: usize, seed: u64) -> SessionSpec {
        SessionSpec {
            nodes,
            seed,
            ..SessionSpec::default()
        }
    }

    fn demo_script() -> Vec<SessionCommand> {
        vec![
            SessionCommand::Snapshot,
            SessionCommand::Broadcast {
                protocol: Protocol::ImprovedCff,
                source: None,
                channels: 1,
                loss_ppm: 0,
                retries: 0,
                min_delivery_ppm: 0,
            },
            SessionCommand::Kill { node: 5 },
            SessionCommand::Broadcast {
                protocol: Protocol::Dfo,
                source: None,
                channels: 1,
                loss_ppm: 0,
                retries: 0,
                min_delivery_ppm: 0,
            },
            SessionCommand::Revive { node: 5 },
            SessionCommand::MoveOut { node: 7 },
            SessionCommand::MoveIn {
                x_milli: 5_000,
                y_milli: 5_000,
                groups: vec![],
            },
            SessionCommand::Mobility {
                epochs: 2,
                movers: 2,
                step_milli: 300,
            },
            SessionCommand::Snapshot,
        ]
    }

    #[test]
    fn scripted_session_is_deterministic() {
        let run = |_: u32| {
            let mut s = NetSession::new(spec(50, 33)).unwrap();
            for cmd in demo_script() {
                s.apply(&cmd);
            }
            render_stream(s.spec(), s.records(), false)
        };
        let a = run(0);
        let b = run(1);
        assert_eq!(a, b, "identical scripts must render identical streams");
        assert!(a.starts_with("{\"stream\": \"dsnet-session/1\""));
        assert_eq!(a.lines().count(), 1 + demo_script().len());
    }

    #[test]
    fn kill_degrades_and_revive_restores_broadcast() {
        let mut s = NetSession::new(spec(60, 7)).unwrap();
        let bcast = SessionCommand::Broadcast {
            protocol: Protocol::ImprovedCff,
            source: None,
            channels: 1,
            loss_ppm: 0,
            retries: 0,
            min_delivery_ppm: 0,
        };
        let clean = s.apply(&bcast);
        assert!(clean.status.is_applied());
        let full = clean
            .fields
            .iter()
            .find(|(k, _)| k == "delivered")
            .unwrap()
            .1;

        // Kill a non-sink node: it still counts as a target but is dead.
        let victim = s
            .network()
            .net()
            .tree()
            .nodes()
            .find(|&u| u != s.network().sink())
            .unwrap();
        assert!(s
            .apply(&SessionCommand::Kill { node: victim.0 })
            .status
            .is_applied());
        let degraded = s.apply(&bcast);
        let partial = degraded
            .fields
            .iter()
            .find(|(k, _)| k == "delivered")
            .unwrap()
            .1;
        assert!(partial < full, "{partial} !< {full}");

        assert!(s
            .apply(&SessionCommand::Revive { node: victim.0 })
            .status
            .is_applied());
        let restored = s.apply(&bcast);
        assert_eq!(
            restored
                .fields
                .iter()
                .find(|(k, _)| k == "delivered")
                .unwrap()
                .1,
            full
        );
    }

    #[test]
    fn validation_rejects_without_mutating() {
        let mut s = NetSession::new(spec(40, 9)).unwrap();
        let v0 = s.network().structure_version();
        for cmd in [
            SessionCommand::Broadcast {
                protocol: Protocol::ImprovedCff,
                source: Some(9_999),
                channels: 1,
                loss_ppm: 0,
                retries: 0,
                min_delivery_ppm: 0,
            },
            SessionCommand::Broadcast {
                protocol: Protocol::ImprovedCff,
                source: None,
                channels: 0,
                loss_ppm: 0,
                retries: 0,
                min_delivery_ppm: 0,
            },
            SessionCommand::Multicast {
                group: 0,
                source: None,
            },
            SessionCommand::MoveOut { node: 9_999 },
            SessionCommand::Kill { node: 9_999 },
            SessionCommand::Revive { node: 3 },
            SessionCommand::Kill {
                node: s.network().sink().0,
            },
        ] {
            let rec = s.apply(&cmd);
            assert!(
                matches!(rec.status, CommandStatus::Rejected(_)),
                "{cmd:?} should be rejected"
            );
        }
        assert_eq!(s.network().structure_version(), v0);
        assert_eq!(s.records().len(), 7);
    }

    #[test]
    fn broadcast_retries_are_bounded_and_recorded() {
        let mut s = NetSession::new(spec(50, 21)).unwrap();
        // An impossible floor (loss present, 100% required of a huge
        // sample) exhausts the retry budget.
        let rec = s.apply(&SessionCommand::Broadcast {
            protocol: Protocol::BasicCff,
            source: None,
            channels: 1,
            loss_ppm: 400_000,
            retries: 2,
            min_delivery_ppm: 1_000_000,
        });
        if matches!(rec.status, CommandStatus::Rejected(_)) {
            assert_eq!(rec.attempts, 3, "budget = retries + 1");
        } else {
            // The lossy run can still deliver everything; then it must
            // have stopped as soon as the floor was met.
            assert!(rec.attempts <= 3);
        }
        // A floor of zero never retries.
        let rec = s.apply(&SessionCommand::Broadcast {
            protocol: Protocol::BasicCff,
            source: None,
            channels: 1,
            loss_ppm: 400_000,
            retries: 5,
            min_delivery_ppm: 0,
        });
        assert_eq!(rec.attempts, 1);
        assert!(rec.status.is_applied());
    }

    #[test]
    fn empty_specs_are_typed_build_errors() {
        let no_nodes = NetSession::new(spec(0, 1)).unwrap_err();
        assert_eq!(no_nodes, BuildError::NoNodes);
        let no_field = SessionSpec {
            field_milli: 0,
            ..spec(10, 1)
        };
        assert_eq!(
            NetSession::new(no_field).unwrap_err(),
            BuildError::EmptyField
        );
        // The smallest legal spec builds and broadcasts.
        let mut one = NetSession::new(spec(1, 1)).unwrap();
        assert!(one.apply(&SessionCommand::Snapshot).status.is_applied());
        let rec = one.apply(&SessionCommand::Broadcast {
            protocol: Protocol::Dfo,
            source: None,
            channels: 1,
            loss_ppm: 0,
            retries: 0,
            min_delivery_ppm: 0,
        });
        assert!(rec.status.is_applied(), "{:?}", rec.status);
    }

    #[test]
    fn hostile_broadcast_parameters_are_rejected_not_panics() {
        let mut s = NetSession::new(spec(30, 2)).unwrap();
        let bcast = |loss_ppm, retries, min_delivery_ppm| SessionCommand::Broadcast {
            protocol: Protocol::ImprovedCff,
            source: None,
            channels: 1,
            loss_ppm,
            retries,
            min_delivery_ppm,
        };
        for loss_ppm in [PPM_SCALE + 1, u32::MAX] {
            let rec = s.apply(&bcast(loss_ppm, 0, 0));
            assert_eq!(
                rec.status,
                CommandStatus::Rejected("loss_ppm must be <= 1000000".into())
            );
            assert!(rec.fields.is_empty());
        }
        // Certain loss is still a legal (if useless) channel.
        let rec = s.apply(&bcast(PPM_SCALE, 0, 0));
        assert!(rec.status.is_applied(), "{:?}", rec.status);
        // A retry budget past 255 is refused before any run.
        for retries in [MAX_RETRIES + 1, u32::MAX] {
            let rec = s.apply(&bcast(0, retries, 1_000_000));
            assert_eq!(
                rec.status,
                CommandStatus::Rejected("retries must be <= 255".into())
            );
            assert!(rec.fields.is_empty(), "no engine run reports rounds");
        }
    }

    #[test]
    fn the_largest_retry_budget_runs_every_attempt() {
        let mut s = NetSession::new(spec(12, 3)).unwrap();
        let bcast = |loss_ppm| SessionCommand::Broadcast {
            protocol: Protocol::BasicCff,
            source: None,
            channels: 1,
            loss_ppm,
            retries: MAX_RETRIES,
            min_delivery_ppm: 1_000_000,
        };
        let rec = s.apply(&bcast(0));
        assert!(rec.status.is_applied(), "{:?}", rec.status);
        assert_eq!(rec.attempts, 1);
        // Certain loss never meets a full floor, so all 256 attempts run.
        let rec = s.apply(&bcast(PPM_SCALE));
        assert_eq!(rec.attempts, 256);
        let delivery = rec.fields.iter().find(|(k, _)| k == "delivery_ppm");
        assert!(delivery.is_some_and(|&(_, ppm)| ppm < 1_000_000));
        assert!(
            matches!(&rec.status, CommandStatus::Rejected(m) if m.ends_with("after 256 attempts")),
            "{:?}",
            rec.status
        );
    }

    #[test]
    fn snapshot_reports_cache_and_version_movement() {
        let mut s = NetSession::new(spec(40, 4)).unwrap();
        let a = s.apply(&SessionCommand::Snapshot);
        let b = s.apply(&SessionCommand::Snapshot);
        let field = |r: &CommandRecord, k: &str| {
            r.fields
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(field(&a, "version"), field(&b, "version"));
        assert!(field(&b, "cache_hits") > field(&a, "cache_hits") - 1);
        s.apply(&SessionCommand::MoveOut { node: 11 });
        let c = s.apply(&SessionCommand::Snapshot);
        assert!(field(&c, "version") > field(&b, "version"));
    }

    #[test]
    fn rendering_separates_timing_from_determinism() {
        let mut s = NetSession::new(spec(30, 2)).unwrap();
        s.apply(&SessionCommand::Snapshot);
        s.apply(&SessionCommand::MoveOut { node: 9_999 });
        let with = render_stream(s.spec(), s.records(), true);
        let without = render_stream(s.spec(), s.records(), false);
        assert!(with.contains("wall_us"));
        assert!(!without.contains("wall_us"));
        assert!(without.contains("\"status\": \"rejected\""));
        assert!(without.contains("\"reason\""));
    }
}
