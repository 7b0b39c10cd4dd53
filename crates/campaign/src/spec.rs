//! Campaign specifications and their expansion into trial grids.

use dsnet_geom::rng::derive_seed;
use std::fmt;

/// Which broadcast protocol a trial runs.
///
/// Mirrors `Protocol` (in `dsnet-protocols`, re-exported as
/// `dsnet::Protocol`); kept separate so the campaign engine depends on no
/// simulation crate — it knows trials, seeds and records, not networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolSpec {
    /// Depth-first-order Eulerian-tour baseline of \[19\].
    Dfo,
    /// Algorithm 1: basic collision-free flooding.
    BasicCff,
    /// Algorithm 2: the improved two-phase CFF.
    ImprovedCff,
    /// Bounded-retry reliable CFF (Algorithm 1 + NACK/retransmit epochs).
    ReliableCff,
}

impl ProtocolSpec {
    /// Short stable name used in CLI arguments and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolSpec::Dfo => "dfo",
            ProtocolSpec::BasicCff => "cff1",
            ProtocolSpec::ImprovedCff => "cff2",
            ProtocolSpec::ReliableCff => "rcff",
        }
    }

    /// Parse a CLI name (the inverse of [`ProtocolSpec::name`]).
    pub fn parse(s: &str) -> Option<ProtocolSpec> {
        match s {
            "dfo" => Some(ProtocolSpec::Dfo),
            "cff1" | "basic" => Some(ProtocolSpec::BasicCff),
            "cff2" | "improved" | "cff" => Some(ProtocolSpec::ImprovedCff),
            "rcff" | "reliable" => Some(ProtocolSpec::ReliableCff),
            _ => None,
        }
    }
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative fail-stop schedule, instantiated per trial by the trial
/// runner (victim selection uses the trial's private RNG stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureTemplate {
    /// No failures.
    None,
    /// Kill `count` random non-root backbone nodes at `round`.
    Backbone {
        /// Victims drawn (without replacement) from the backbone.
        count: usize,
        /// Fail-stop round (1-based; round 1 = before any transmission).
        round: u64,
    },
    /// Kill `count` random non-root nodes of any status at `round`.
    Random {
        /// Victims drawn (without replacement) from all non-root nodes.
        count: usize,
        /// Fail-stop round (1-based).
        round: u64,
    },
    /// Take `count` random non-root backbone nodes offline at `round` for
    /// `duration` rounds (a transient outage — they come back).
    BackboneOutage {
        /// Victims drawn (without replacement) from the backbone.
        count: usize,
        /// Outage start round (1-based).
        round: u64,
        /// Rounds offline before the node revives.
        duration: u64,
    },
    /// Take `count` random non-root nodes of any status offline at
    /// `round` for `duration` rounds.
    RandomOutage {
        /// Victims drawn (without replacement) from all non-root nodes.
        count: usize,
        /// Outage start round (1-based).
        round: u64,
        /// Rounds offline before the node revives.
        duration: u64,
    },
}

impl FailureTemplate {
    /// Short stable label used in artifacts and CLI arguments
    /// (`none`, `bb<count>@<round>`, `any<count>@<round>`; outage
    /// variants append `+<duration>`, e.g. `bb3@1+10`).
    pub fn label(&self) -> String {
        match self {
            FailureTemplate::None => "none".into(),
            FailureTemplate::Backbone { count, round } => format!("bb{count}@{round}"),
            FailureTemplate::Random { count, round } => format!("any{count}@{round}"),
            FailureTemplate::BackboneOutage {
                count,
                round,
                duration,
            } => format!("bb{count}@{round}+{duration}"),
            FailureTemplate::RandomOutage {
                count,
                round,
                duration,
            } => format!("any{count}@{round}+{duration}"),
        }
    }

    /// Whether the victims come back (outage) rather than fail-stop.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            FailureTemplate::BackboneOutage { .. } | FailureTemplate::RandomOutage { .. }
        )
    }

    /// Parse a label (the inverse of [`FailureTemplate::label`]).
    pub fn parse(s: &str) -> Option<FailureTemplate> {
        if s == "none" {
            return Some(FailureTemplate::None);
        }
        let (kind, rest) = if let Some(rest) = s.strip_prefix("bb") {
            ("bb", rest)
        } else if let Some(rest) = s.strip_prefix("any") {
            ("any", rest)
        } else {
            return None;
        };
        let (count, rest) = rest.split_once('@')?;
        let count = count.parse().ok()?;
        match rest.split_once('+') {
            Some((round, duration)) => {
                let round = round.parse().ok()?;
                let duration = duration.parse().ok()?;
                Some(match kind {
                    "bb" => FailureTemplate::BackboneOutage {
                        count,
                        round,
                        duration,
                    },
                    _ => FailureTemplate::RandomOutage {
                        count,
                        round,
                        duration,
                    },
                })
            }
            None => {
                let round = rest.parse().ok()?;
                Some(match kind {
                    "bb" => FailureTemplate::Backbone { count, round },
                    _ => FailureTemplate::Random { count, round },
                })
            }
        }
    }
}

/// Per-link Bernoulli loss axis value, quantised to parts-per-million so
/// it can be hashed and compared exactly (mirrors
/// `dsnet_radio::LossModel`'s quantisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LossSpec {
    /// Drop probability in parts per million.
    pub ppm: u32,
}

impl LossSpec {
    /// The lossless channel.
    pub fn none() -> LossSpec {
        LossSpec::default()
    }

    /// Quantise a probability in `[0, 1]`.
    pub fn from_probability(p: f64) -> LossSpec {
        assert!((0.0..=1.0).contains(&p), "loss probability {p} ∉ [0, 1]");
        LossSpec {
            ppm: (p * 1_000_000.0).round() as u32,
        }
    }

    /// The drop probability this spec encodes.
    pub fn probability(self) -> f64 {
        self.ppm as f64 / 1_000_000.0
    }

    /// Whether this is the lossless channel.
    pub fn is_none(self) -> bool {
        self.ppm == 0
    }

    /// Short stable label (`none` or `p<probability>`, e.g. `p0.05`).
    pub fn label(self) -> String {
        if self.is_none() {
            "none".into()
        } else {
            format!("p{}", self.probability())
        }
    }

    /// Parse a label (the inverse of [`LossSpec::label`]).
    pub fn parse(s: &str) -> Option<LossSpec> {
        if s == "none" {
            return Some(LossSpec::none());
        }
        let p: f64 = s.strip_prefix('p')?.parse().ok()?;
        if (0.0..=1.0).contains(&p) {
            Some(LossSpec::from_probability(p))
        } else {
            None
        }
    }
}

/// Mobility axis value: which trajectory model moves the nodes (with the
/// structure maintained incrementally) before the measured broadcast.
/// Speeds are quantised to milli-units-per-epoch so the spec can be
/// hashed and compared exactly (mirrors [`LossSpec`]'s ppm quantisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MobilitySpec {
    /// Static nodes (the non-mobile campaign).
    #[default]
    None,
    /// Random-waypoint motion: uniform waypoints, trip speeds uniform in
    /// `[0.5·speed, 1.5·speed]`, pausing on arrival.
    RandomWaypoint {
        /// Template speed in milli-units per epoch.
        speed_milli: u32,
        /// Pause epochs after reaching a waypoint.
        pause: u32,
        /// Epochs of motion before the broadcast.
        epochs: u32,
    },
    /// Gauss-Markov motion: AR(1) velocity with fixed memory 0.75.
    GaussMarkov {
        /// RMS per-axis speed in milli-units per epoch.
        speed_milli: u32,
        /// Epochs of motion before the broadcast.
        epochs: u32,
    },
}

impl MobilitySpec {
    /// The static (non-mobile) axis value.
    pub fn none() -> MobilitySpec {
        MobilitySpec::None
    }

    /// Random-waypoint motion; `speed` is quantised to milli-units.
    pub fn random_waypoint(speed: f64, epochs: u32, pause: u32) -> MobilitySpec {
        assert!(speed > 0.0, "mobility speed must be positive, got {speed}");
        MobilitySpec::RandomWaypoint {
            speed_milli: (speed * 1000.0).round() as u32,
            pause,
            epochs,
        }
    }

    /// Gauss-Markov motion; `speed` is quantised to milli-units.
    pub fn gauss_markov(speed: f64, epochs: u32) -> MobilitySpec {
        assert!(speed > 0.0, "mobility speed must be positive, got {speed}");
        MobilitySpec::GaussMarkov {
            speed_milli: (speed * 1000.0).round() as u32,
            epochs,
        }
    }

    /// Whether the nodes stay put.
    pub fn is_none(self) -> bool {
        self == MobilitySpec::None
    }

    /// The speed in units per epoch (0 for the static value).
    pub fn speed(self) -> f64 {
        match self {
            MobilitySpec::None => 0.0,
            MobilitySpec::RandomWaypoint { speed_milli, .. }
            | MobilitySpec::GaussMarkov { speed_milli, .. } => speed_milli as f64 / 1000.0,
        }
    }

    /// Motion epochs before the broadcast (0 for the static value).
    pub fn epochs(self) -> u32 {
        match self {
            MobilitySpec::None => 0,
            MobilitySpec::RandomWaypoint { epochs, .. }
            | MobilitySpec::GaussMarkov { epochs, .. } => epochs,
        }
    }

    /// Short stable label (`none`, `rwp<speed>x<epochs>p<pause>`, or
    /// `gm<speed>x<epochs>`, e.g. `rwp0.05x20p2`).
    pub fn label(self) -> String {
        match self {
            MobilitySpec::None => "none".into(),
            MobilitySpec::RandomWaypoint { pause, epochs, .. } => {
                format!("rwp{}x{epochs}p{pause}", self.speed())
            }
            MobilitySpec::GaussMarkov { epochs, .. } => format!("gm{}x{epochs}", self.speed()),
        }
    }

    /// Parse a label (the inverse of [`MobilitySpec::label`]).
    pub fn parse(s: &str) -> Option<MobilitySpec> {
        if s == "none" {
            return Some(MobilitySpec::None);
        }
        if let Some(rest) = s.strip_prefix("rwp") {
            let (speed, rest) = rest.split_once('x')?;
            let (epochs, pause) = rest.split_once('p')?;
            let speed: f64 = speed.parse().ok()?;
            if speed <= 0.0 {
                return None;
            }
            return Some(MobilitySpec::random_waypoint(
                speed,
                epochs.parse().ok()?,
                pause.parse().ok()?,
            ));
        }
        if let Some(rest) = s.strip_prefix("gm") {
            let (speed, epochs) = rest.split_once('x')?;
            let speed: f64 = speed.parse().ok()?;
            if speed <= 0.0 {
                return None;
            }
            return Some(MobilitySpec::gauss_markov(speed, epochs.parse().ok()?));
        }
        None
    }
}

/// Label for the repair axis (`on` / `off`).
pub fn repair_label(repair: bool) -> &'static str {
    if repair {
        "on"
    } else {
        "off"
    }
}

/// Parse a repair-axis label (the inverse of [`repair_label`]).
pub fn parse_repair(s: &str) -> Option<bool> {
    match s {
        "on" => Some(true),
        "off" => Some(false),
        _ => None,
    }
}

/// A declarative churn schedule applied to the network *before* the
/// broadcast: `leaves` random non-sink departures followed by `joins`
/// arrivals placed in range of surviving nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ChurnTemplate {
    /// Nodes joining before the broadcast.
    pub joins: usize,
    /// Nodes leaving before the broadcast.
    pub leaves: usize,
}

impl ChurnTemplate {
    /// Whether no churn is applied.
    pub fn is_none(&self) -> bool {
        self.joins == 0 && self.leaves == 0
    }

    /// Short stable label (`none` or `j<joins>l<leaves>`).
    pub fn label(&self) -> String {
        if self.is_none() {
            "none".into()
        } else {
            format!("j{}l{}", self.joins, self.leaves)
        }
    }

    /// Parse a label (the inverse of [`ChurnTemplate::label`]).
    pub fn parse(s: &str) -> Option<ChurnTemplate> {
        if s == "none" {
            return Some(ChurnTemplate::default());
        }
        let rest = s.strip_prefix('j')?;
        let (joins, leaves) = rest.split_once('l')?;
        Some(ChurnTemplate {
            joins: joins.parse().ok()?,
            leaves: leaves.parse().ok()?,
        })
    }
}

/// A declarative experiment campaign: the cross product of every axis
/// below, repeated `reps` times per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name, recorded in artifacts.
    pub name: String,
    /// Square field side for the unit-disk deployment.
    pub field_side: f64,
    /// Network sizes swept.
    pub ns: Vec<usize>,
    /// Seeded repetitions per cell.
    pub reps: u64,
    /// Master seed; every trial seed derives from it.
    pub base_seed: u64,
    /// Protocols compared.
    pub protocols: Vec<ProtocolSpec>,
    /// Channel counts swept.
    pub channels: Vec<u8>,
    /// Failure templates swept.
    pub failures: Vec<FailureTemplate>,
    /// Churn templates swept.
    pub churn: Vec<ChurnTemplate>,
    /// Channel-loss levels swept.
    pub losses: Vec<LossSpec>,
    /// Repair on/off values swept (detection-and-repair of fail-stop
    /// victims before the measured broadcast).
    pub repair: Vec<bool>,
    /// Mobility templates swept (motion with incremental structure
    /// maintenance before the measured broadcast).
    pub mobility: Vec<MobilitySpec>,
    /// Retry budget for the reliable CFF (scalar, not an axis).
    pub max_retries: u32,
    /// Record event traces (collision counts become available).
    pub record_trace: bool,
}

impl CampaignSpec {
    /// A single-axis campaign skeleton: Improved CFF, one channel, no
    /// failures, no churn, on the paper's 10×10 field with seed 2007.
    pub fn new(name: impl Into<String>) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            field_side: 10.0,
            ns: vec![120],
            reps: 3,
            base_seed: 2007,
            protocols: vec![ProtocolSpec::ImprovedCff],
            channels: vec![1],
            failures: vec![FailureTemplate::None],
            churn: vec![ChurnTemplate::default()],
            losses: vec![LossSpec::none()],
            repair: vec![false],
            mobility: vec![MobilitySpec::None],
            max_retries: 2,
            record_trace: true,
        }
    }

    /// Number of trials the grid expands to.
    pub fn trial_count(&self) -> usize {
        self.protocols.len()
            * self.channels.len()
            * self.failures.len()
            * self.churn.len()
            * self.losses.len()
            * self.repair.len()
            * self.mobility.len()
            * self.ns.len()
            * self.reps as usize
    }

    /// Expand the grid into its trial list.
    ///
    /// The order — protocol, channels, failure, churn, loss, repair,
    /// mobility, n, rep, innermost last — is part of the determinism
    /// contract: a trial's position in this list is its identity, and its
    /// `stream_seed` derives from it.
    ///
    /// `scenario_seed` is keyed by `(base_seed, n, rep)` only, matching
    /// `SweepConfig::seed` in the experiment harness, so every protocol /
    /// channel / failure variant of a repetition shares its deployment.
    pub fn expand(&self) -> Vec<Trial> {
        let mut trials = Vec::with_capacity(self.trial_count());
        let stream_root = derive_seed(self.base_seed, 0xCA3B_A16E);
        for &protocol in &self.protocols {
            for &channels in &self.channels {
                for &failure in &self.failures {
                    for &churn in &self.churn {
                        for &loss in &self.losses {
                            for &repair in &self.repair {
                                for &mobility in &self.mobility {
                                    for &n in &self.ns {
                                        for rep in 0..self.reps {
                                            let index = trials.len();
                                            trials.push(Trial {
                                                index,
                                                protocol,
                                                channels,
                                                failure,
                                                churn,
                                                loss,
                                                repair,
                                                mobility,
                                                max_retries: self.max_retries,
                                                n,
                                                rep,
                                                field_side: self.field_side,
                                                record_trace: self.record_trace,
                                                scenario_seed: derive_seed(
                                                    self.base_seed,
                                                    ((n as u64) << 20) | rep,
                                                ),
                                                stream_seed: derive_seed(stream_root, index as u64),
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        trials
    }
}

/// One fully-specified simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Position in [`CampaignSpec::expand`]'s order (the trial identity).
    pub index: usize,
    /// Protocol under test.
    pub protocol: ProtocolSpec,
    /// Radio channels.
    pub channels: u8,
    /// Failure template to instantiate.
    pub failure: FailureTemplate,
    /// Churn template to apply before the broadcast.
    pub churn: ChurnTemplate,
    /// Channel-loss level.
    pub loss: LossSpec,
    /// Whether fail-stop victims are detected and repaired before the
    /// measured broadcast.
    pub repair: bool,
    /// Mobility template to run before the measured broadcast.
    pub mobility: MobilitySpec,
    /// Retry budget for the reliable CFF (from the spec's scalar).
    pub max_retries: u32,
    /// Deployment size.
    pub n: usize,
    /// Repetition number within the cell.
    pub rep: u64,
    /// Square field side.
    pub field_side: f64,
    /// Whether to record the event trace.
    pub record_trace: bool,
    /// Deployment seed — shared across protocols/channels/failures of the
    /// same `(n, rep)` so comparisons are paired.
    pub scenario_seed: u64,
    /// Private RNG stream for victim draws and churn placement.
    pub stream_seed: u64,
}

impl Trial {
    /// The cell label axes `(protocol, channels, failure, churn, loss,
    /// repair, mobility, n)` — everything except the repetition.
    pub fn cell_label(&self) -> String {
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

    /// Whether two trials belong to the same aggregation cell.
    pub fn same_cell(&self, other: &Trial) -> bool {
        self.protocol == other.protocol
            && self.channels == other.channels
            && self.failure == other.failure
            && self.churn == other.churn
            && self.loss == other.loss
            && self.repair == other.repair
            && self.mobility == other.mobility
            && self.n == other.n
    }
}

/// Condensed outcome of one trial — the record streamed into the sink.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Rounds until the engine stopped.
    pub rounds: u64,
    /// Targets that received the message.
    pub delivered: u64,
    /// Intended receivers.
    pub targets: u64,
    /// Targets still alive when the run ended.
    pub targets_alive: u64,
    /// Delivered targets among the alive ones.
    pub delivered_alive: u64,
    /// First round by which half the targets were covered (trace only).
    pub t50: Option<u64>,
    /// First round by which 90% of the targets were covered (trace only).
    pub t90: Option<u64>,
    /// Round the last target was covered; `None` unless all were.
    pub t_full: Option<u64>,
    /// Time-to-repair (detection + eviction/re-homing rounds) summed over
    /// the repaired victims; `None` when the trial did not repair.
    pub repair_rounds: Option<u64>,
    /// Rounds the worst-off node stayed awake (Figure 9's metric).
    pub max_awake: u64,
    /// Mean awake rounds over all participating nodes.
    pub mean_awake: f64,
    /// Receiver-side collisions; `None` when the trace was off.
    pub collisions: Option<u64>,
    /// Analytic round bound for this protocol and network.
    pub bound: u64,
    /// Live nodes after churn was applied (= deployment n without churn).
    pub nodes: u64,
    /// Structure reconfigurations during the mobility phase; `None` when
    /// the trial was static.
    pub reconfigs: Option<u64>,
    /// Slot-assignment changes during the mobility phase; `None` when the
    /// trial was static.
    pub slot_churn: Option<u64>,
}

impl TrialRecord {
    /// Fraction of targets that received the message.
    pub fn delivery_ratio(&self) -> f64 {
        if self.targets == 0 {
            1.0
        } else {
            self.delivered as f64 / self.targets as f64
        }
    }

    /// Fraction of the targets alive at the end of the run that received
    /// the message.
    pub fn delivery_ratio_alive(&self) -> f64 {
        if self.targets_alive == 0 {
            1.0
        } else {
            self.delivered_alive as f64 / self.targets_alive as f64
        }
    }

    /// Whether every target received the message.
    pub fn completed(&self) -> bool {
        self.delivered == self.targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_axis_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new("t");
        spec.protocols = vec![ProtocolSpec::ImprovedCff, ProtocolSpec::Dfo];
        spec.ns = vec![40, 80];
        spec.reps = 2;
        spec
    }

    #[test]
    fn expansion_is_the_full_grid_in_stable_order() {
        let spec = two_axis_spec();
        let trials = spec.expand();
        assert_eq!(trials.len(), spec.trial_count());
        assert_eq!(trials.len(), 8);
        for (i, t) in trials.iter().enumerate() {
            assert_eq!(t.index, i);
        }
        // Innermost axis is rep, then n, protocol outermost.
        assert_eq!(trials[0].protocol, ProtocolSpec::ImprovedCff);
        assert_eq!((trials[0].n, trials[0].rep), (40, 0));
        assert_eq!((trials[1].n, trials[1].rep), (40, 1));
        assert_eq!((trials[2].n, trials[2].rep), (80, 0));
        assert_eq!(trials[4].protocol, ProtocolSpec::Dfo);
    }

    #[test]
    fn scenario_seeds_pair_protocols_and_stream_seeds_do_not() {
        let trials = two_axis_spec().expand();
        // Same (n, rep), different protocol → same deployment seed.
        assert_eq!(trials[0].scenario_seed, trials[4].scenario_seed);
        // Stream seeds are per-trial.
        assert_ne!(trials[0].stream_seed, trials[4].stream_seed);
        // Different reps diverge everywhere.
        assert_ne!(trials[0].scenario_seed, trials[1].scenario_seed);
    }

    #[test]
    fn expansion_is_reproducible() {
        let spec = two_axis_spec();
        assert_eq!(spec.expand(), spec.expand());
    }

    #[test]
    fn labels_roundtrip() {
        for f in [
            FailureTemplate::None,
            FailureTemplate::Backbone { count: 3, round: 1 },
            FailureTemplate::Random { count: 7, round: 4 },
            FailureTemplate::BackboneOutage {
                count: 3,
                round: 1,
                duration: 10,
            },
            FailureTemplate::RandomOutage {
                count: 2,
                round: 5,
                duration: 8,
            },
        ] {
            assert_eq!(FailureTemplate::parse(&f.label()), Some(f));
        }
        assert_eq!(
            FailureTemplate::BackboneOutage {
                count: 3,
                round: 1,
                duration: 10
            }
            .label(),
            "bb3@1+10"
        );
        for c in [
            ChurnTemplate::default(),
            ChurnTemplate {
                joins: 5,
                leaves: 2,
            },
        ] {
            assert_eq!(ChurnTemplate::parse(&c.label()), Some(c));
        }
        for p in [
            ProtocolSpec::Dfo,
            ProtocolSpec::BasicCff,
            ProtocolSpec::ImprovedCff,
            ProtocolSpec::ReliableCff,
        ] {
            assert_eq!(ProtocolSpec::parse(p.name()), Some(p));
        }
        for l in [LossSpec::none(), LossSpec::from_probability(0.05)] {
            assert_eq!(LossSpec::parse(&l.label()), Some(l));
        }
        assert_eq!(LossSpec::from_probability(0.05).label(), "p0.05");
        for m in [
            MobilitySpec::None,
            MobilitySpec::random_waypoint(0.05, 20, 2),
            MobilitySpec::gauss_markov(0.05, 20),
        ] {
            assert_eq!(MobilitySpec::parse(&m.label()), Some(m));
        }
        assert_eq!(
            MobilitySpec::random_waypoint(0.05, 20, 2).label(),
            "rwp0.05x20p2"
        );
        assert_eq!(MobilitySpec::gauss_markov(0.05, 20).label(), "gm0.05x20");
        assert_eq!(MobilitySpec::parse("rwp0x5p1"), None);
        assert_eq!(MobilitySpec::parse("rwp0.05x20"), None);
        for r in [false, true] {
            assert_eq!(parse_repair(repair_label(r)), Some(r));
        }
        assert_eq!(FailureTemplate::parse("bogus"), None);
        assert_eq!(ChurnTemplate::parse("j3"), None);
        assert_eq!(LossSpec::parse("p1.5"), None);
        assert_eq!(parse_repair("maybe"), None);
    }

    #[test]
    fn loss_and_repair_axes_multiply_the_grid() {
        let mut spec = two_axis_spec();
        spec.losses = vec![LossSpec::none(), LossSpec::from_probability(0.1)];
        spec.repair = vec![false, true];
        let trials = spec.expand();
        assert_eq!(trials.len(), spec.trial_count());
        assert_eq!(trials.len(), 32);
        // Loss is outside repair, which is outside n.
        assert!(trials[0].loss.is_none() && !trials[0].repair);
        assert!(trials[0].same_cell(&trials[1]));
        assert!(!trials[0].same_cell(&trials[4])); // repair flipped
        assert!(!trials[0].same_cell(&trials[8])); // loss flipped
        assert_eq!(trials[8].loss, LossSpec::from_probability(0.1));
    }

    #[test]
    fn mobility_axis_multiplies_the_grid_inside_repair() {
        let mut spec = two_axis_spec();
        spec.mobility = vec![
            MobilitySpec::None,
            MobilitySpec::random_waypoint(0.05, 10, 2),
        ];
        let trials = spec.expand();
        assert_eq!(trials.len(), spec.trial_count());
        assert_eq!(trials.len(), 16);
        // Mobility sits between repair and n: the first ns.len()·reps
        // trials are static, the next block is mobile.
        assert!(trials[0].mobility.is_none());
        assert!(!trials[4].mobility.is_none());
        assert!(!trials[0].same_cell(&trials[4]));
        // Scenario seeds stay paired across the mobility axis.
        assert_eq!(trials[0].scenario_seed, trials[4].scenario_seed);
        // A static-only spec expands exactly as before the axis existed.
        let static_spec = two_axis_spec();
        let static_trials = static_spec.expand();
        assert_eq!(static_trials.len(), 8);
        for (a, b) in static_trials.iter().zip(&trials[..4]) {
            assert_eq!(a.scenario_seed, b.scenario_seed);
            assert_eq!(a.stream_seed, b.stream_seed);
        }
    }

    #[test]
    fn cell_membership_ignores_rep() {
        let trials = two_axis_spec().expand();
        assert!(trials[0].same_cell(&trials[1]));
        assert!(!trials[0].same_cell(&trials[2])); // different n
        assert!(!trials[0].same_cell(&trials[4])); // different protocol
    }
}
