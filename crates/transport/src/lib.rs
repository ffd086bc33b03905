//! # ogsa-transport
//!
//! The simulated testbed network: two-or-more named hosts, an endpoint
//! registry (address → handler), and three wire bindings matching the
//! paper's setups:
//!
//! * **HTTP** — request/response SOAP with keep-alive connection pooling
//!   (IIS/ASP.NET front end);
//! * **HTTPS** — HTTP over TLS, with a session/socket cache ("Due to socket
//!   caching, HTTPS performance is much faster");
//! * **raw TCP** — the one-way SOAP-over-TCP path Plumbwork Orange's WSE
//!   `SoapReceiver` uses for WS-Eventing notifications ("Notification
//!   performance does appear to be considerably better for the WS-Eventing
//!   implementation ... because of the TCP vs. HTTP issue").
//!
//! Every message is serialised to real XML on send and re-parsed on
//! receive, so malformed messages fail exactly where they would on a real
//! wire; the simulated 2005 costs (latency, bandwidth, connection setup,
//! TLS) are charged to the shared virtual clock. One-way sends are delivered
//! by a background worker thread, so notification latency composes with
//! whatever the subscriber is doing — as on the paper's testbed.

pub mod error;
pub mod fault;
pub mod net;
pub mod retry;
pub mod stats;

pub use error::TransportError;
pub use fault::{DeadLetter, FaultDecision, FaultKind, FaultPlan, Partition};
pub use net::{Network, Port, WeakNetwork};
pub use retry::RetryPolicy;
pub use stats::{NetStats, NetStatsSnapshot};

/// Where client and service sit relative to each other — the second axis of
/// the paper's six scenarios. Derived from host names at call time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Deployment {
    /// Client and service on the same machine.
    Colocated,
    /// Client and service on different machines.
    Distributed,
}

impl Deployment {
    pub fn label(self) -> &'static str {
        match self {
            Deployment::Colocated => "co-located",
            Deployment::Distributed => "distributed",
        }
    }

    pub fn all() -> [Deployment; 2] {
        [Deployment::Colocated, Deployment::Distributed]
    }
}
