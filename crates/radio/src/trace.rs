//! Optional event traces for debugging and verification.
//!
//! The engine can record every transmission, delivery and collision. The
//! collision events are *observer-only*: the simulated nodes never learn
//! about them (the model has no collision detection), but tests use the
//! trace to prove e.g. that a slot assignment really was collision-free at
//! every receiver that mattered.

use crate::action::Channel;
use crate::Round;
use dsnet_graph::NodeId;

/// One observable event in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing event attributes
pub enum TraceEvent {
    /// `node` transmitted on `channel`.
    Transmit {
        round: Round,
        node: NodeId,
        channel: Channel,
    },
    /// `to` cleanly received the round's message from `from`.
    Deliver {
        round: Round,
        from: NodeId,
        to: NodeId,
        channel: Channel,
    },
    /// `node` was listening on `channel` while ≥ 2 of its neighbours
    /// transmitted on it — the message(s) were destroyed at this receiver.
    Collision {
        round: Round,
        node: NodeId,
        channel: Channel,
        transmitters: u32,
    },
    /// `node` died (fail-stop or outage start) at the start of `round`.
    NodeDeath { round: Round, node: NodeId },
    /// `node` came back from a transient outage at the start of `round`.
    NodeRevive { round: Round, node: NodeId },
    /// The transmission `from → to` was destroyed by channel loss while
    /// `to` was listening on `channel` (see `LossModel`). Like collisions,
    /// drops are observer-only: the receiver just hears silence.
    LinkDrop {
        round: Round,
        from: NodeId,
        to: NodeId,
        channel: Channel,
    },
}

impl TraceEvent {
    /// The round the event happened in.
    pub fn round(&self) -> Round {
        match *self {
            TraceEvent::Transmit { round, .. }
            | TraceEvent::Deliver { round, .. }
            | TraceEvent::Collision { round, .. }
            | TraceEvent::NodeDeath { round, .. }
            | TraceEvent::NodeRevive { round, .. }
            | TraceEvent::LinkDrop { round, .. } => round,
        }
    }
}

/// An append-only event log. Disabled traces cost nothing.
///
/// Besides the event stream, a trace carries *diagnostic warnings* —
/// structured notes about benign-but-surprising behaviour (e.g. the
/// documented k=1 leaf-window collisions of Algorithm 2). Warnings are
/// data, never stderr output: quiet runs stay quiet, and consumers that
/// care inspect [`Trace::warnings`] explicitly.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
    warnings: Vec<String>,
}

impl Trace {
    /// A recording trace.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            events: Vec::new(),
            warnings: Vec::new(),
        }
    }

    /// A recording trace with pre-reserved event storage — lets callers
    /// that know the expected event volume avoid reallocation churn.
    pub fn enabled_with_capacity(events: usize) -> Self {
        Self {
            enabled: true,
            events: Vec::with_capacity(events),
            warnings: Vec::new(),
        }
    }

    /// A no-op trace (records nothing, costs nothing).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append an event (no-op when disabled).
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// All recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Record a diagnostic warning (no-op when disabled). Warnings flow
    /// through the trace instead of stderr so that library code never
    /// prints: quiet runs stay quiet, loud facts stay queryable.
    pub fn warn(&mut self, msg: impl Into<String>) {
        if self.enabled {
            self.warnings.push(msg.into());
        }
    }

    /// All recorded diagnostic warnings, in order.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of collision events at listening receivers over the run, or
    /// `None` when the trace was disabled and the count is unknowable.
    ///
    /// This is the honest accessor: a disabled trace must not masquerade
    /// as a collision-free run.
    pub fn try_collision_count(&self) -> Option<usize> {
        self.enabled.then(|| {
            self.events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Collision { .. }))
                .count()
        })
    }

    /// Number of collision events at listening receivers over the run.
    ///
    /// # Panics
    ///
    /// Panics when the trace was disabled — a disabled trace has no
    /// collision information, and returning 0 here historically made runs
    /// look collision-free when nothing was measured. Use
    /// [`Trace::try_collision_count`] to handle the disabled case.
    pub fn collision_count(&self) -> usize {
        self.try_collision_count()
            .expect("collision_count() on a disabled trace: enable record_trace or use try_collision_count()")
    }

    /// Number of clean deliveries over the run.
    pub fn delivery_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Deliver { .. }))
            .count()
    }

    /// All deliveries made to `node`.
    pub fn deliveries_to(&self, node: NodeId) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Deliver { to, .. } if *to == node))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(TraceEvent::Transmit {
            round: 1,
            node: NodeId(0),
            channel: 0,
        });
        t.warn("should vanish");
        assert!(t.is_empty());
        assert_eq!(t.try_collision_count(), None);
        assert!(t.warnings().is_empty());
    }

    #[test]
    fn warnings_are_recorded_in_order() {
        let mut t = Trace::enabled();
        t.warn("first");
        t.warn(String::from("second"));
        assert_eq!(t.warnings(), ["first", "second"]);
        // Warnings are diagnostics, not events.
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "disabled trace")]
    fn disabled_trace_collision_count_panics() {
        Trace::disabled().collision_count();
    }

    #[test]
    fn enabled_trace_counts_kinds() {
        let mut t = Trace::enabled();
        t.push(TraceEvent::Transmit {
            round: 1,
            node: NodeId(0),
            channel: 0,
        });
        t.push(TraceEvent::Deliver {
            round: 1,
            from: NodeId(0),
            to: NodeId(1),
            channel: 0,
        });
        t.push(TraceEvent::Collision {
            round: 2,
            node: NodeId(2),
            channel: 0,
            transmitters: 3,
        });
        assert_eq!(t.len(), 3);
        assert_eq!(t.delivery_count(), 1);
        assert_eq!(t.collision_count(), 1);
        assert_eq!(t.deliveries_to(NodeId(1)).len(), 1);
        assert_eq!(t.deliveries_to(NodeId(2)).len(), 0);
    }

    #[test]
    fn event_round_accessor() {
        let e = TraceEvent::NodeDeath {
            round: 9,
            node: NodeId(4),
        };
        assert_eq!(e.round(), 9);
    }
}
