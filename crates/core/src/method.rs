//! The named method configurations evaluated in §5.

use std::fmt;

use bpush_obs::{CoverageRule, MonitorPolicy};
use bpush_server::ServerOptions;
use bpush_types::config::MultiversionLayout;

use crate::invalidation::InvalidationOnly;
use crate::multiversion::MultiversionBroadcast;
use crate::mvcache::MultiversionCaching;
use crate::protocol::{CacheMode, ReadOnlyProtocol};
use crate::sgt::{Sgt, SgtConfig};

/// The processing-method configurations the paper's evaluation compares
/// (the curves of Figures 5, 6 and 8 and the columns of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
// bpush-lint: protocol_enum — the paper’s method matrix; every handler must name each
pub enum Method {
    /// §3.1 without a client cache.
    InvalidationOnly,
    /// §3.1 + §4.1 plain coherent cache.
    InvalidationCache,
    /// §4.1 invalidation-only with versioned cache (Theorem 4).
    InvalidationVersionedCache,
    /// §3.2 multiversion broadcast (all transactions with span ≤ V
    /// accepted).
    MultiversionBroadcast,
    /// §3.3 SGT without a cache.
    Sgt,
    /// §3.3 SGT reading through the coherent cache.
    SgtCache,
    /// §4.2 multiversion caching (Theorem 5).
    MultiversionCaching,
    /// §3.3 SGT with the §5.2.2 disconnection enhancement (per-item
    /// version numbers). Not part of [`Method::ALL`]; used by the
    /// disconnection experiments.
    SgtVersionedItems,
}

impl Method {
    /// All methods, in the paper's comparison order.
    pub const ALL: [Method; 7] = [
        Method::InvalidationOnly,
        Method::InvalidationCache,
        Method::InvalidationVersionedCache,
        Method::MultiversionBroadcast,
        Method::Sgt,
        Method::SgtCache,
        Method::MultiversionCaching,
    ];

    /// A short stable identifier (matches the protocol's
    /// [`ReadOnlyProtocol::name`] plus cache qualifiers).
    pub fn name(self) -> &'static str {
        match self {
            Method::InvalidationOnly => "inv-only",
            Method::InvalidationCache => "inv+cache",
            Method::InvalidationVersionedCache => "inv+vcache",
            Method::MultiversionBroadcast => "multiversion",
            Method::Sgt => "sgt",
            Method::SgtCache => "sgt+cache",
            Method::MultiversionCaching => "mv-caching",
            Method::SgtVersionedItems => "sgt+versions",
        }
    }

    /// Builds a fresh client-side protocol instance for one client.
    pub fn build_protocol(self) -> Box<dyn ReadOnlyProtocol> {
        match self {
            Method::InvalidationOnly | Method::InvalidationCache => {
                Box::new(InvalidationOnly::new())
            }
            Method::InvalidationVersionedCache => {
                Box::new(InvalidationOnly::with_versioned_cache())
            }
            Method::MultiversionBroadcast => Box::new(MultiversionBroadcast::new()),
            Method::Sgt => Box::new(Sgt::new(SgtConfig::default())),
            Method::SgtCache => Box::new(Sgt::new(SgtConfig {
                use_cache: true,
                ..SgtConfig::default()
            })),
            Method::MultiversionCaching => Box::new(MultiversionCaching::new()),
            Method::SgtVersionedItems => Box::new(Sgt::new(SgtConfig {
                versioned_items: true,
                ..SgtConfig::default()
            })),
        }
    }

    /// Whether the client runs a cache under this method.
    pub fn uses_cache(self) -> bool {
        !matches!(
            self,
            Method::InvalidationOnly
                | Method::MultiversionBroadcast
                | Method::Sgt
                | Method::SgtVersionedItems
        )
    }

    /// The cache organization the client must run.
    pub fn cache_mode(self) -> CacheMode {
        match self {
            Method::InvalidationOnly
            | Method::MultiversionBroadcast
            | Method::Sgt
            | Method::SgtVersionedItems => CacheMode::None,
            Method::InvalidationCache | Method::SgtCache => CacheMode::Plain,
            Method::InvalidationVersionedCache => CacheMode::Versioned,
            Method::MultiversionCaching => CacheMode::Multiversion,
        }
    }

    /// The invariant family and gap rule an online monitor must check
    /// this method against (the consistency criterion each method
    /// guarantees, per the §3/§4 correctness arguments).
    pub fn monitor_policy(self) -> (MonitorPolicy, CoverageRule) {
        match self {
            // §3.1: committed readsets are current as of the last clean
            // report; uncovered gaps must doom (window rule, §5.2.2).
            Method::InvalidationOnly | Method::InvalidationCache => {
                (MonitorPolicy::Current, CoverageRule::WindowGap)
            }
            // §4.1/§3.2: the readset need only share one database state;
            // gaps pin the query instead of dooming it.
            Method::InvalidationVersionedCache
            | Method::MultiversionBroadcast
            | Method::MultiversionCaching => (MonitorPolicy::Snapshot, CoverageRule::Ignore),
            // §3.3: the serialization graph stays acyclic; plain SGT
            // cannot tolerate any missed cycle.
            Method::Sgt | Method::SgtCache => (MonitorPolicy::Graph, CoverageRule::StrictGap),
            // §5.2.2: per-item versions let SGT survive disconnections.
            Method::SgtVersionedItems => (MonitorPolicy::Graph, CoverageRule::Ignore),
        }
    }

    /// The server-side support the method needs, given the multiversion
    /// layout to use when applicable.
    pub fn server_options(self, layout: MultiversionLayout) -> ServerOptions {
        match self {
            Method::MultiversionBroadcast => ServerOptions::multiversion(layout),
            Method::Sgt | Method::SgtCache | Method::SgtVersionedItems => ServerOptions::sgt(),
            Method::InvalidationOnly
            | Method::InvalidationCache
            | Method::InvalidationVersionedCache
            | Method::MultiversionCaching => ServerOptions::plain(),
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpush_server::BroadcastMode;

    #[test]
    fn all_methods_build_protocols() {
        for m in Method::ALL {
            let p = m.build_protocol();
            assert!(!p.name().is_empty());
            assert_eq!(m.to_string(), m.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<_> = Method::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), Method::ALL.len());
    }

    /// Pins `server_options` for every method, including the
    /// non-comparison `SgtVersionedItems`: the L13 rewrite from a
    /// wildcard arm to named variants must not move any method's
    /// server-side requirements.
    #[test]
    fn server_options_pinned_for_every_method() {
        let layout = MultiversionLayout::Overflow;
        for m in Method::ALL.into_iter().chain([Method::SgtVersionedItems]) {
            let opts = m.server_options(layout);
            let (want_mode, want_sgt) = match m {
                Method::MultiversionBroadcast => (BroadcastMode::Multiversion(layout), false),
                Method::Sgt | Method::SgtCache | Method::SgtVersionedItems => {
                    (BroadcastMode::Plain, true)
                }
                Method::InvalidationOnly
                | Method::InvalidationCache
                | Method::InvalidationVersionedCache
                | Method::MultiversionCaching => (BroadcastMode::Plain, false),
            };
            assert_eq!(opts.mode, want_mode, "{m}");
            assert_eq!(opts.sgt_info, want_sgt, "{m}");
        }
    }

    #[test]
    fn server_requirements() {
        let layout = MultiversionLayout::Overflow;
        assert_eq!(
            Method::MultiversionBroadcast.server_options(layout).mode,
            BroadcastMode::Multiversion(layout)
        );
        assert!(Method::Sgt.server_options(layout).sgt_info);
        assert!(Method::SgtCache.server_options(layout).sgt_info);
        assert_eq!(
            Method::InvalidationOnly.server_options(layout).mode,
            BroadcastMode::Plain
        );
        assert!(!Method::MultiversionCaching.server_options(layout).sgt_info);
    }

    /// Pins the invariant family per method: the differential oracle
    /// (mc ground truth vs online monitors) depends on this mapping.
    #[test]
    fn monitor_policies_pinned_for_every_method() {
        for m in Method::ALL.into_iter().chain([Method::SgtVersionedItems]) {
            let (policy, coverage) = m.monitor_policy();
            let want = match m {
                Method::InvalidationOnly | Method::InvalidationCache => {
                    (MonitorPolicy::Current, CoverageRule::WindowGap)
                }
                Method::InvalidationVersionedCache
                | Method::MultiversionBroadcast
                | Method::MultiversionCaching => (MonitorPolicy::Snapshot, CoverageRule::Ignore),
                Method::Sgt | Method::SgtCache => (MonitorPolicy::Graph, CoverageRule::StrictGap),
                Method::SgtVersionedItems => (MonitorPolicy::Graph, CoverageRule::Ignore),
            };
            assert_eq!((policy, coverage), want, "{m}");
        }
    }

    #[test]
    fn cache_modes_match_usage() {
        for m in Method::ALL {
            assert_eq!(m.uses_cache(), m.cache_mode() != CacheMode::None, "{m}");
        }
        assert_eq!(
            Method::MultiversionCaching.cache_mode(),
            CacheMode::Multiversion
        );
        assert_eq!(
            Method::InvalidationVersionedCache.cache_mode(),
            CacheMode::Versioned
        );
    }
}
