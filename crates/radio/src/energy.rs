//! Per-node energy accounting.
//!
//! The paper's energy claim (Theorem 1(2), Figure 9) is stated in *awake
//! rounds*: a node spends energy whenever its radio is on, i.e. while
//! transmitting or listening. The meter keeps transmit and listen rounds
//! apart, since reports total each kind separately; rounds with the radio
//! off, whether asleep or dead, cost nothing and are not counted.

/// Energy counters for a single node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyMeter {
    /// Rounds spent transmitting.
    pub tx_rounds: u64,
    /// Rounds spent listening.
    pub listen_rounds: u64,
}

impl EnergyMeter {
    /// Count a transmitting round.
    pub fn record_tx(&mut self) {
        self.tx_rounds += 1;
    }

    /// Count a listening round.
    pub fn record_listen(&mut self) {
        self.listen_rounds += 1;
    }

    /// Rounds with the radio powered on — the paper's "awake" metric.
    pub fn awake_rounds(&self) -> u64 {
        self.tx_rounds + self.listen_rounds
    }
}

/// Aggregated energy over all nodes of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// Largest awake-round count over the nodes.
    pub max_awake: u64,
    /// Mean awake rounds per node.
    pub mean_awake: f64,
    /// Total transmitting rounds across the run.
    pub total_tx: u64,
    /// Total listening rounds across the run.
    pub total_listen: u64,
    /// Number of metered nodes.
    pub nodes: usize,
}

impl EnergyReport {
    /// Summarise a slice of per-node meters (one entry per participating
    /// node; pass only the meters of nodes that took part).
    pub fn from_meters<'a, I: IntoIterator<Item = &'a EnergyMeter>>(meters: I) -> Self {
        let mut r = EnergyReport::default();
        let mut sum_awake = 0u64;
        for m in meters {
            let awake = m.awake_rounds();
            r.max_awake = r.max_awake.max(awake);
            sum_awake += awake;
            r.total_tx += m.tx_rounds;
            r.total_listen += m.listen_rounds;
            r.nodes += 1;
        }
        if r.nodes > 0 {
            r.mean_awake = sum_awake as f64 / r.nodes as f64;
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn awake_counts_tx_and_listen() {
        let mut m = EnergyMeter::default();
        m.record_tx();
        m.record_listen();
        m.record_listen();
        assert_eq!((m.tx_rounds, m.listen_rounds), (1, 2));
        assert_eq!(m.awake_rounds(), 3);
    }

    #[test]
    fn report_aggregates() {
        let mut a = EnergyMeter::default();
        a.record_tx();
        let mut b = EnergyMeter::default();
        b.record_listen();
        b.record_listen();
        b.record_listen();
        let r = EnergyReport::from_meters([&a, &b]);
        assert_eq!(r.max_awake, 3);
        assert_eq!(r.mean_awake, 2.0);
        assert_eq!(r.total_tx, 1);
        assert_eq!(r.total_listen, 3);
        assert_eq!(r.nodes, 2);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = EnergyReport::from_meters(std::iter::empty());
        assert_eq!(r, EnergyReport::default());
    }
}
