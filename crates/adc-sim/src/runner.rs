//! The simulation handle: a validated cluster of proxy agents plus its
//! configuration. The `run*` entry points live with the executor in
//! `sharded.rs`.

use crate::config::SimConfig;
use adc_core::{CacheAgent, ProxyId};

/// A deterministic discrete-event simulation of one proxy cluster.
///
/// Generic over the agent type, so ADC proxies and baseline hashing
/// proxies run under identical accounting. See the crate docs for a
/// complete example.
#[derive(Debug)]
pub struct Simulation<A> {
    /// Dense-id proxy agents; the sharded executor re-partitions them.
    pub(crate) agents: Vec<A>,
    /// Validated configuration (see [`Simulation::new`]).
    pub(crate) config: SimConfig,
}

impl<A: CacheAgent> Simulation<A> {
    /// Creates a simulation over the given proxy agents.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty, agent IDs are not dense `0..n`, or
    /// the configuration is invalid.
    pub fn new(agents: Vec<A>, config: SimConfig) -> Self {
        assert!(!agents.is_empty(), "need at least one proxy agent");
        for (i, a) in agents.iter().enumerate() {
            assert_eq!(
                a.proxy_id(),
                ProxyId::new(i as u32), // dense ids: i < agent count ≤ u32::MAX
                "agent IDs must be dense 0..n in order"
            );
        }
        // Documented precondition (see "# Panics"). adc-lint: allow(panic)
        config.validate().expect("invalid simulator configuration");
        if let Some(matrix) = &config.proxy_latency_matrix {
            assert_eq!(
                matrix.len(),
                agents.len(),
                "proxy_latency_matrix must match the proxy count"
            );
        }
        Simulation { agents, config }
    }

    /// Number of proxies.
    pub fn num_proxies(&self) -> usize {
        self.agents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use adc_core::{AdcConfig, AdcProxy};

    fn agents(n: u32) -> Vec<AdcProxy> {
        (0..n)
            .map(|i| AdcProxy::new(ProxyId::new(i), n, AdcConfig::default()))
            .collect()
    }

    #[test]
    #[should_panic(expected = "dense 0..n")]
    fn non_dense_agent_ids_rejected() {
        let agents = vec![AdcProxy::with_peers(
            ProxyId::new(1),
            vec![ProxyId::new(1)],
            AdcConfig::default(),
        )];
        let _ = Simulation::new(agents, SimConfig::fast());
    }

    #[test]
    #[should_panic(expected = "at least one proxy")]
    fn empty_agent_set_rejected() {
        let _ = Simulation::new(Vec::<AdcProxy>::new(), SimConfig::fast());
    }

    #[test]
    #[should_panic(expected = "must match the proxy count")]
    fn wrong_sized_matrix_rejected() {
        let mut config = SimConfig::fast();
        config.proxy_latency_matrix = Some(vec![vec![SimTime::ZERO; 2]; 2]);
        let _ = Simulation::new(agents(3), config);
    }

    #[test]
    fn non_square_matrix_rejected_by_validation() {
        let mut config = SimConfig::fast();
        config.proxy_latency_matrix = Some(vec![vec![SimTime::ZERO; 3], vec![SimTime::ZERO; 2]]);
        assert!(config.validate().is_err());
    }
}
