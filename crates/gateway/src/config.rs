//! Gateway configuration and validation.

use offloadnn_net::ClientConfig;
use offloadnn_plancache::PlanCacheConfig;
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
/// A federated gateway exchanges periodic load digests with its peers
/// (`PeerHello` → `PeerLoad` frames) and, when its *own* cluster would
/// shed a ticket — retry budget exhausted, no healthy node, or a node
/// relayed a Shed — forwards the task to the least-loaded peer with the
/// *remaining* deadline budget. The `Forward` frame carries a hop count
/// and the set of gateways already tried, so a task can neither loop nor
/// revisit a cluster. Forwarding is strictly an overflow valve: a ticket
/// the local cluster can serve never leaves it.
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
    /// Period of the digest sweep across all peers.
    pub digest_interval: Duration,
    /// How long one `PeerHello` round trip may block before counting as
    /// a missed digest.
    pub digest_timeout: Duration,
    /// Consecutive missed digests after which a peer is considered down
    /// (no forwards routed to it until a digest succeeds again).
    pub eject_after: u32,
    /// Maximum forward hops a task it originates may take (1 = direct
    /// peers only). Relayed forwards inherit the sender's remaining hop
    /// count instead.
    pub hop_limit: u8,
}

impl FederationConfig {
    /// A federation config for `identity` and `peers` with default
    /// timing knobs.
    pub fn new(identity: impl Into<String>, peers: Vec<SocketAddr>) -> Self {
        Self {
            peers,
            identity: identity.into(),
            digest_interval: Duration::from_millis(250),
            digest_timeout: Duration::from_millis(500),
            eject_after: 3,
            hop_limit: 1,
        }
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
        if self.digest_interval.is_zero() {
            return Err(GatewayError::InvalidConfig("federation.digest_interval must be positive"));
        }
        if self.digest_timeout.is_zero() {
            return Err(GatewayError::InvalidConfig("federation.digest_timeout must be positive"));
        }
        if self.eject_after == 0 {
            return Err(GatewayError::InvalidConfig("federation.eject_after must be at least 1"));
        }
        if self.hop_limit == 0 {
            return Err(GatewayError::InvalidConfig("federation.hop_limit must be at least 1"));
        }
        Ok(())
    }
}

/// Tuning for a [`crate::Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Period of the health monitor's probe sweep across all nodes.
    pub health_interval: Duration,
    /// How long one Metrics probe may block before counting as a miss.
    pub health_timeout: Duration,
    /// Consecutive missed health checks after which a node is ejected.
    pub eject_after: u32,
    /// How long an ejected node sits out before a probe may readmit it.
    pub probation: Duration,
    /// Consecutive failed probes of an unhealthy (probing or ejected)
    /// node after which the monitor starts backing off: past this count
    /// the probe stride doubles per failure, so a long-dead node stops
    /// costing a connect timeout every sweep.
    pub probe_backoff_after: u32,
    /// Cap on the probe-backoff stride, in monitor sweeps. A long-dead
    /// node is still probed at least once per `probe_backoff_limit`
    /// sweeps, bounding how stale its revival can go unnoticed.
    pub probe_backoff_limit: u32,
    /// The gateway's own admission budget policy: submits carrying no
    /// client deadline get this budget, and client deadlines are
    /// tightened to at most this (mirroring the serve-side rule that a
    /// backend may tighten but never extend its policy).
    pub default_deadline: Duration,
    /// Extra time past a ticket's deadline the gateway keeps waiting for
    /// an in-flight backend verdict before writing the ticket off as
    /// expired and handing the straggler to the reaper.
    pub verdict_grace: Duration,
    /// Maximum submit attempts per ticket across failovers (the first
    /// attempt counts, so `3` means the primary plus two retries).
    pub retry_limit: u32,
    /// Deadline-aware hedging.
    pub hedge: HedgeConfig,
    /// Cluster-level plan cache: memoizes which node last admitted a
    /// task shape (routing affinity) and, under a short negative TTL,
    /// shapes the cluster rejected outright. `None` (the default)
    /// disables caching and leaves the submit path untouched.
    pub plan_cache: Option<PlanCacheConfig>,
    /// Cross-gateway federation: `None` (the default) keeps the gateway
    /// standalone; `Some` peers it with other gateways for overflow
    /// forwarding (see [`FederationConfig`]).
    pub federation: Option<FederationConfig>,
    /// Transport tuning for the per-node backend clients. The default
    /// fails fast (one connect attempt, short timeout): the failover
    /// path, not the transport retry loop, owns recovery from a dead
    /// node.
    pub client: ClientConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        let client = ClientConfig {
            connect_attempts: 1,
            connect_timeout: Duration::from_millis(500),
            ..ClientConfig::default()
        };
        Self {
            health_interval: Duration::from_millis(250),
            health_timeout: Duration::from_millis(500),
            eject_after: 3,
            probation: Duration::from_secs(2),
            probe_backoff_after: 4,
            probe_backoff_limit: 64,
            default_deadline: Duration::from_secs(5),
            verdict_grace: Duration::from_secs(5),
            retry_limit: 3,
            hedge: HedgeConfig::default(),
            plan_cache: None,
            federation: None,
            client,
        }
    }
}

impl GatewayConfig {
    /// A builder starting from [`GatewayConfig::default`]. Setters keep
    /// every untouched field at its default and
    /// [`GatewayConfigBuilder::build`] validates the result, so an
    /// invalid combination fails where it was written instead of at
    /// [`crate::Gateway::start`]. Struct literals with
    /// `..GatewayConfig::default()` keep working unchanged.
    pub fn builder() -> GatewayConfigBuilder {
        GatewayConfigBuilder { config: Self::default() }
    }
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
        if self.probe_backoff_limit == 0 {
            return Err(GatewayError::InvalidConfig("probe_backoff_limit must be at least 1"));
        }
        if self.default_deadline.is_zero() {
            return Err(GatewayError::InvalidConfig("default_deadline must be positive"));
        }
        if self.retry_limit == 0 {
            return Err(GatewayError::InvalidConfig("retry_limit must be at least 1"));
        }
        if self.hedge.min_samples == 0 {
            return Err(GatewayError::InvalidConfig("hedge.min_samples must be at least 1"));
        }
        if let Some(pc) = &self.plan_cache {
            pc.validate().map_err(|_| GatewayError::InvalidConfig("plan_cache knobs must be positive"))?;
        }
        if let Some(fed) = &self.federation {
            fed.validate()?;
        }
        self.client.validate().map_err(|_| GatewayError::InvalidConfig("client config out of range"))
    }
}

/// Builder for [`GatewayConfig`] — see [`GatewayConfig::builder`].
#[derive(Debug, Clone)]
pub struct GatewayConfigBuilder {
    config: GatewayConfig,
}

impl GatewayConfigBuilder {
    /// Sets the health-probe timing (sweep period and per-probe timeout).
    #[must_use]
    pub fn health(mut self, interval: Duration, timeout: Duration) -> Self {
        self.config.health_interval = interval;
        self.config.health_timeout = timeout;
        self
    }

    /// Sets the ejection threshold and probation window.
    #[must_use]
    pub fn ejection(mut self, eject_after: u32, probation: Duration) -> Self {
        self.config.eject_after = eject_after;
        self.config.probation = probation;
        self
    }

    /// Sets the unhealthy-probe backoff knobs.
    #[must_use]
    pub fn probe_backoff(mut self, after: u32, limit: u32) -> Self {
        self.config.probe_backoff_after = after;
        self.config.probe_backoff_limit = limit;
        self
    }

    /// Sets the gateway's default admission deadline.
    #[must_use]
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.config.default_deadline = deadline;
        self
    }

    /// Sets the post-deadline verdict grace window.
    #[must_use]
    pub fn verdict_grace(mut self, grace: Duration) -> Self {
        self.config.verdict_grace = grace;
        self
    }

    /// Sets the failover retry limit.
    #[must_use]
    pub fn retry_limit(mut self, limit: u32) -> Self {
        self.config.retry_limit = limit;
        self
    }

    /// Sets the deadline-aware hedging knobs.
    #[must_use]
    pub fn hedge(mut self, hedge: HedgeConfig) -> Self {
        self.config.hedge = hedge;
        self
    }

    /// Enables the cluster-level plan cache.
    #[must_use]
    pub fn plan_cache(mut self, cache: PlanCacheConfig) -> Self {
        self.config.plan_cache = Some(cache);
        self
    }

    /// Enables cross-gateway federation.
    #[must_use]
    pub fn federation(mut self, federation: FederationConfig) -> Self {
        self.config.federation = Some(federation);
        self
    }

    /// Sets the backend-client transport tuning.
    #[must_use]
    pub fn client(mut self, client: ClientConfig) -> Self {
        self.config.client = client;
        self
    }

    /// Validates and returns the finished config.
    ///
    /// # Errors
    ///
    /// [`GatewayError::InvalidConfig`] naming the offending field.
    pub fn build(self) -> Result<GatewayConfig, GatewayError> {
        self.config.validate()?;
        Ok(self.config)
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
    fn default_config_validates() {
        assert!(GatewayConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_fields_are_named() {
        let c = GatewayConfig { eject_after: 0, ..GatewayConfig::default() };
        assert_eq!(c.validate(), Err(GatewayError::InvalidConfig("eject_after must be at least 1")));
        let c = GatewayConfig { retry_limit: 0, ..GatewayConfig::default() };
        assert!(c.validate().is_err());
        let c = GatewayConfig { probe_backoff_limit: 0, ..GatewayConfig::default() };
        assert_eq!(c.validate(), Err(GatewayError::InvalidConfig("probe_backoff_limit must be at least 1")));
        let hedge = HedgeConfig { min_samples: 0, ..HedgeConfig::default() };
        let c = GatewayConfig { hedge, ..GatewayConfig::default() };
        assert!(c.validate().is_err());
        let pc = PlanCacheConfig { capacity: 0, ..PlanCacheConfig::default() };
        let c = GatewayConfig { plan_cache: Some(pc), ..GatewayConfig::default() };
        assert_eq!(c.validate(), Err(GatewayError::InvalidConfig("plan_cache knobs must be positive")));
        let c = GatewayConfig { plan_cache: Some(PlanCacheConfig::default()), ..GatewayConfig::default() };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_validates_and_matches_literal_construction() {
        let built = GatewayConfig::builder()
            .health(Duration::from_millis(50), Duration::from_millis(100))
            .ejection(2, Duration::from_millis(200))
            .retry_limit(2)
            .default_deadline(Duration::from_secs(1))
            .build()
            .unwrap();
        let literal = GatewayConfig {
            health_interval: Duration::from_millis(50),
            health_timeout: Duration::from_millis(100),
            eject_after: 2,
            probation: Duration::from_millis(200),
            retry_limit: 2,
            default_deadline: Duration::from_secs(1),
            ..GatewayConfig::default()
        };
        assert_eq!(built.health_interval, literal.health_interval);
        assert_eq!(built.retry_limit, literal.retry_limit);
        assert_eq!(built.default_deadline, literal.default_deadline);
        assert!(GatewayConfig::builder().retry_limit(0).build().is_err());
    }

    #[test]
    fn federation_fields_are_validated() {
        let peer: SocketAddr = "127.0.0.1:7001".parse().unwrap();
        let good = FederationConfig::new("127.0.0.1:7000", vec![peer]);
        assert!(good.validate().is_ok());
        let c = GatewayConfig::builder().federation(good.clone()).build().unwrap();
        assert_eq!(c.federation, Some(good.clone()));
        let cases = [
            FederationConfig { peers: Vec::new(), ..good.clone() },
            FederationConfig { identity: String::new(), ..good.clone() },
            FederationConfig { digest_interval: Duration::ZERO, ..good.clone() },
            FederationConfig { digest_timeout: Duration::ZERO, ..good.clone() },
            FederationConfig { eject_after: 0, ..good.clone() },
            FederationConfig { hop_limit: 0, ..good.clone() },
        ];
        for bad in cases {
            let c = GatewayConfig { federation: Some(bad.clone()), ..GatewayConfig::default() };
            assert!(c.validate().is_err(), "{bad:?} must be rejected");
        }
    }
}
