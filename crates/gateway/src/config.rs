//! Gateway configuration and validation.

use std::net::SocketAddr;
use std::time::Duration;

/// Deadline-aware request hedging knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Master switch. Off by default: hedging trades duplicate backend
    /// work for tail latency, which is only worth it once a deployment
    /// has measured its tails.
    pub enabled: bool,
    /// Minimum per-node RTT observations before that node's p99 is
    /// trusted to trigger a hedge. Below this the gateway never hedges
    /// against the node (cold histograms produce garbage quantiles).
    pub min_samples: u64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self { enabled: false, min_samples: 32 }
    }
}

/// Cross-gateway federation knobs.
///
/// A federated gateway probes its peers like its nodes — same monitor,
/// same `health_*`, `eject_after` and `probation` knobs — with a
/// `PeerHello` whose `PeerLoad` answer is the peer's load digest. When
/// its *own* cluster would shed a ticket — retry budget exhausted, no
/// healthy node, or a node relayed a Shed — it forwards the task to the
/// least-loaded peer with the *remaining* deadline budget. The forward
/// is an attempt like a node submit: launched at `submit` (or by the
/// `poll` or `wait` that saw the local cluster fail), bounded by
/// `wait_timeout`, and reaped if the ticket gives up on it. The
/// `Forward` frame carries a hop count (a locally submitted task may
/// take `HOP_LIMIT` = 1 hop: direct peers only) and the set of gateways
/// already tried, so a task can neither loop nor revisit a cluster.
/// Forwarding is strictly an overflow valve: a ticket the local cluster
/// can serve never leaves it.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationConfig {
    /// Peer gateway frontends to federate with (each an `offloadnn-net`
    /// endpoint whose backend is itself a gateway).
    pub peers: Vec<SocketAddr>,
    /// This gateway's identity as stamped into `Forward` frames (origin
    /// and tried-set entries). Peers compare it by string equality for
    /// loop prevention, so use the address this gateway's own frontend
    /// listens on — it must match what peers have in `peers`.
    pub identity: String,
}

impl FederationConfig {
    /// A federation config for `identity` and `peers`.
    pub fn new(identity: impl Into<String>, peers: Vec<SocketAddr>) -> Self {
        Self { peers, identity: identity.into() }
    }

    /// Checks every field is in range.
    ///
    /// # Errors
    ///
    /// [`GatewayError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), GatewayError> {
        if self.peers.is_empty() {
            return Err(GatewayError::InvalidConfig("federation.peers must not be empty"));
        }
        if self.identity.is_empty() {
            return Err(GatewayError::InvalidConfig("federation.identity must not be empty"));
        }
        Ok(())
    }
}

/// Tuning for a [`crate::Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Period of the health monitor's probe sweep across all nodes and
    /// federated peers.
    pub health_interval: Duration,
    /// How long one probe may block before counting as a miss.
    pub health_timeout: Duration,
    /// Consecutive missed probes after which a node or peer is ejected.
    pub eject_after: u32,
    /// How long an ejected node or peer sits out before a probe may
    /// readmit it.
    pub probation: Duration,
    /// The gateway's own admission budget policy: submits carrying no
    /// client deadline get this budget, and client deadlines are
    /// tightened to at most this (mirroring the serve-side rule that a
    /// backend may tighten but never extend its policy).
    pub default_deadline: Duration,
    /// Extra time past a ticket's deadline the gateway keeps waiting for
    /// an in-flight backend verdict before writing the ticket off as
    /// expired and handing the straggler to the reaper.
    pub verdict_grace: Duration,
    /// Deadline-aware hedging.
    pub hedge: HedgeConfig,
    /// Cross-gateway federation: `None` (the default) keeps the gateway
    /// standalone; `Some` peers it with other gateways for overflow
    /// forwarding (see [`FederationConfig`]).
    pub federation: Option<FederationConfig>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            health_interval: Duration::from_millis(250),
            health_timeout: Duration::from_millis(500),
            eject_after: 3,
            probation: Duration::from_secs(2),
            default_deadline: Duration::from_secs(5),
            verdict_grace: Duration::from_secs(5),
            hedge: HedgeConfig::default(),
            federation: None,
        }
    }
}

impl GatewayConfig {
    /// Checks every field is in range.
    ///
    /// # Errors
    ///
    /// [`GatewayError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), GatewayError> {
        if self.health_interval.is_zero() {
            return Err(GatewayError::InvalidConfig("health_interval must be positive"));
        }
        if self.health_timeout.is_zero() {
            return Err(GatewayError::InvalidConfig("health_timeout must be positive"));
        }
        if self.eject_after == 0 {
            return Err(GatewayError::InvalidConfig("eject_after must be at least 1"));
        }
        if self.default_deadline.is_zero() {
            return Err(GatewayError::InvalidConfig("default_deadline must be positive"));
        }
        if self.hedge.min_samples == 0 {
            return Err(GatewayError::InvalidConfig("hedge.min_samples must be at least 1"));
        }
        match &self.federation {
            Some(fed) => fed.validate(),
            None => Ok(()),
        }
    }
}

/// Gateway construction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// A configuration field is out of its valid range.
    InvalidConfig(&'static str),
    /// The node pool was empty.
    NoNodes,
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(what) => write!(f, "invalid gateway config: {what}"),
            Self::NoNodes => write!(f, "gateway needs at least one backend node"),
        }
    }
}

impl std::error::Error for GatewayError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_invalid_field_is_rejected_and_named() {
        let peer: SocketAddr = "127.0.0.1:7001".parse().unwrap();
        let fed = FederationConfig::new("127.0.0.1:7000", vec![peer]);
        let base = GatewayConfig { federation: Some(fed.clone()), ..GatewayConfig::default() };
        assert!(GatewayConfig::default().validate().is_ok());
        assert!(base.validate().is_ok());
        let hedge = HedgeConfig { min_samples: 0, ..HedgeConfig::default() };
        let federated = |fed| GatewayConfig { federation: Some(fed), ..base.clone() };
        let cases = [
            ("health_interval", GatewayConfig { health_interval: Duration::ZERO, ..base.clone() }),
            ("health_timeout", GatewayConfig { health_timeout: Duration::ZERO, ..base.clone() }),
            ("eject_after", GatewayConfig { eject_after: 0, ..base.clone() }),
            ("default_deadline", GatewayConfig { default_deadline: Duration::ZERO, ..base.clone() }),
            ("hedge.min_samples", GatewayConfig { hedge, ..base.clone() }),
            ("federation.peers", federated(FederationConfig { peers: Vec::new(), ..fed.clone() })),
            ("federation.identity", federated(FederationConfig { identity: String::new(), ..fed.clone() })),
        ];
        for (field, cfg) in cases {
            let refused = cfg.validate();
            assert!(
                matches!(refused, Err(GatewayError::InvalidConfig(what)) if what.starts_with(field)),
                "{field}: {refused:?}"
            );
        }
    }
}
