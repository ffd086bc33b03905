//! Message counters — the instrument behind the paper's §3.1 claim that
//! demand-based brokered publishing generates "an order of magnitude" more
//! messages than any other interaction.
//!
//! Each counter is this network's cell of a `net.*` registry series, so
//! `/metrics` shows the ledger the tests read; retries and dead letters
//! are read off their labelled `oneway.*`/`invoke.retries` families. A
//! [`NetStats::snapshot`] is exact once the senders are done (after
//! `Network::quiesce`/`drain` returns or they are joined), which is when
//! the chaos and determinism tests compare snapshots.

use ogsa_telemetry::{Counter, MetricsRegistry};

macro_rules! net_counters {
    ($($field:ident),* $(,)?) => {
        /// Shared counters for everything that crosses the simulated wire.
        /// Cloning shares the cells.
        #[derive(Debug, Clone)]
        pub struct NetStats {
            $(pub(crate) $field: Counter,)*
            metrics: MetricsRegistry,
        }

        /// A plain-data copy of every counter, for equality assertions in
        /// determinism and chaos tests.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct NetStatsSnapshot {
            $(pub $field: u64,)*
            pub retries: u64,
            pub dead_letters: u64,
        }

        impl NetStats {
            /// Register this network's `net.*` cells in `metrics`.
            pub(crate) fn new(metrics: &MetricsRegistry) -> Self {
                NetStats {
                    $($field: metrics.cell(concat!("net.", stringify!($field)), &[]),)*
                    metrics: metrics.clone(),
                }
            }

            $(pub fn $field(&self) -> u64 {
                self.$field.get()
            })*

            /// A plain-data copy of every counter; exact once the senders
            /// are done (see the module docs).
            pub fn snapshot(&self) -> NetStatsSnapshot {
                NetStatsSnapshot {
                    $($field: self.$field.get(),)*
                    retries: self.retries(),
                    dead_letters: self.dead_letters(),
                }
            }
        }
    };
}

net_counters!(
    requests,
    responses,
    oneways,
    bytes,
    tls_handshakes,
    tls_resumptions,
    connects,
    injected_drops,
    injected_delays,
    injected_duplicates,
    injected_garbles,
    partition_refusals,
    timeouts,
);

impl NetStatsSnapshot {
    /// Total injected faults of every kind.
    pub fn faults_injected(&self) -> u64 {
        self.injected_drops
            + self.injected_delays
            + self.injected_duplicates
            + self.injected_garbles
            + self.partition_refusals
    }
}

impl NetStats {
    pub(crate) fn record_request(&self, bytes: usize) {
        self.requests.inc();
        self.bytes.add(bytes as u64);
    }

    pub(crate) fn record_response(&self, bytes: usize) {
        self.responses.inc();
        self.bytes.add(bytes as u64);
    }

    pub(crate) fn record_oneway(&self, bytes: usize) {
        self.oneways.inc();
        self.bytes.add(bytes as u64);
    }

    /// Total SOAP messages on the wire (requests + responses + one-ways).
    pub fn messages(&self) -> u64 {
        self.requests() + self.responses() + self.oneways()
    }

    /// One-way redeliveries plus client invoke retries: every attempt the
    /// retry layers made, wire-level and `ClientAgent`-level alike.
    pub fn retries(&self) -> u64 {
        self.metrics.counter_total("oneway.redeliveries")
            + self.metrics.counter_total("invoke.retries")
    }

    pub fn dead_letters(&self) -> u64 {
        self.metrics.counter_total("oneway.dead_letters")
    }

    /// Total injected faults of every kind.
    pub fn faults_injected(&self) -> u64 {
        self.snapshot().faults_injected()
    }

    /// Zero the connection-lifecycle counters (`connects`,
    /// `tls_handshakes`, `tls_resumptions`) while leaving the message
    /// ledger intact. Called when the pooled connections / TLS sessions
    /// are evicted so a cold-start ablation doesn't report stale warm-run
    /// counts.
    pub fn reset_connection_counters(&self) {
        self.connects.reset();
        self.tls_handshakes.reset();
        self.tls_resumptions.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> NetStats {
        NetStats::new(&MetricsRegistry::new())
    }

    #[test]
    fn messages_is_the_sum() {
        let s = stats();
        s.record_request(10);
        s.record_response(20);
        s.record_oneway(5);
        s.record_oneway(5);
        assert_eq!(s.messages(), 4);
        assert_eq!(s.bytes(), 40);
    }

    #[test]
    fn clones_share() {
        let s = stats();
        s.clone().tls_handshakes.inc();
        s.clone().tls_resumptions.inc();
        s.clone().connects.inc();
        assert_eq!(s.tls_handshakes(), 1);
        assert_eq!(s.tls_resumptions(), 1);
        assert_eq!(s.connects(), 1);
    }

    #[test]
    fn fault_counters_roll_up() {
        let s = stats();
        s.injected_drops.inc();
        s.injected_delays.inc();
        s.injected_duplicates.inc();
        s.injected_garbles.inc();
        s.partition_refusals.inc();
        s.timeouts.inc();
        s.metrics.inc("oneway.redeliveries", &[("reason", "drop")]);
        s.metrics.inc("invoke.retries", &[("action", "Get")]);
        s.metrics.inc("oneway.dead_letters", &[("reason", "drop")]);
        let snap = s.snapshot();
        assert_eq!(snap.faults_injected(), 5);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.dead_letters, 1);
    }

    #[test]
    fn reset_connection_counters_leaves_message_ledger() {
        let s = stats();
        s.record_request(10);
        s.record_response(20);
        s.connects.inc();
        s.tls_handshakes.inc();
        s.tls_resumptions.inc();
        s.metrics.inc("invoke.retries", &[("action", "Get")]);
        s.reset_connection_counters();
        let snap = s.snapshot();
        assert_eq!(snap.connects, 0);
        assert_eq!(snap.tls_handshakes, 0);
        assert_eq!(snap.tls_resumptions, 0);
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.responses, 1);
        assert_eq!(snap.bytes, 30);
        assert_eq!(snap.retries, 1);
    }

    #[test]
    fn snapshots_compare_by_value() {
        let a = stats();
        let b = stats();
        a.record_request(10);
        b.record_request(10);
        assert_eq!(a.snapshot(), b.snapshot());
        b.metrics.inc("invoke.retries", &[("action", "Get")]);
        assert_ne!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn counters_are_the_net_series() {
        let m = MetricsRegistry::new();
        let s = NetStats::new(&m);
        s.record_request(7);
        s.timeouts.inc();
        let snap = m.snapshot();
        assert_eq!(snap.counter("net.requests"), 1);
        assert_eq!(snap.counter("net.bytes"), 7);
        assert_eq!(snap.counter("net.timeouts"), 1);
        assert_eq!(snap.counter("net.tls_handshakes"), 0);
        assert!(snap.counters.contains_key("net.tls_handshakes"));
    }

    #[test]
    fn snapshot_is_exact_once_concurrent_senders_are_joined() {
        // The contract the chaos and determinism tests rely on: no cut is
        // promised mid-flight, but once every sender is joined (or the
        // network has drained) every total is exact.
        const SENDERS: usize = 4;
        const PER_SENDER: u64 = 1_000;
        let m = MetricsRegistry::new();
        let s = NetStats::new(&m);
        let start = std::sync::Barrier::new(SENDERS);
        std::thread::scope(|scope| {
            for _ in 0..SENDERS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..PER_SENDER {
                        s.record_request(7);
                        s.record_oneway(3);
                        m.inc("oneway.redeliveries", &[("reason", "drop")]);
                    }
                });
            }
        });
        let n = SENDERS as u64 * PER_SENDER;
        let snap = s.snapshot();
        assert_eq!(snap.requests, n);
        assert_eq!(snap.oneways, n);
        assert_eq!(snap.bytes, 10 * n);
        assert_eq!(snap.retries, n);
        assert_eq!(m.snapshot().counter("net.bytes"), snap.bytes);
    }
}
