//! Assimilation rules and timeline (slide 17).
//!
//! "Every node is a real-time Micro Computer, managed by the AmpNet
//! Distributed Kernel. Instantly self-boots — doesn't need a host.
//! Conforms to assimilation rules before coming online."
//!
//! A joining node passes self-boot, diagnostics, the version check,
//! the cache refresh and its CRC certification in that order, and any
//! gate can refuse it with a reason. [`assimilate`] evaluates the
//! gates and accounts every phase, which is what `Cluster::handle_join`
//! charges and experiment E9 sweeps.

use crate::version::{CompatPolicy, Features, Rejection, Version};
use ampnet_sim::SimDuration;

/// Timing knobs for assimilation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssimilationParams {
    /// Firmware self-boot time (flash load + kernel start).
    pub boot_time: SimDuration,
    /// Built-in self-test duration.
    pub diagnostics_time: SimDuration,
    /// Version handshake round trip.
    pub handshake_time: SimDuration,
    /// Effective cache-refresh bandwidth, bytes per second (DMA
    /// MicroPackets at ~81 MB/s minus protocol gaps).
    pub refresh_bandwidth: f64,
    /// CRC certification time per megabyte of cache.
    pub certify_per_mb: SimDuration,
}

impl Default for AssimilationParams {
    fn default() -> Self {
        AssimilationParams {
            boot_time: SimDuration::from_millis(50),
            diagnostics_time: SimDuration::from_millis(20),
            handshake_time: SimDuration::from_micros(50),
            refresh_bandwidth: 75e6,
            certify_per_mb: SimDuration::from_micros(500),
        }
    }
}

/// Why assimilation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssimilationFailure {
    /// Self-test failed: the node must not join.
    DiagnosticsFailed,
    /// Version/feature policy rejected the node.
    Incompatible(Rejection),
    /// Refresh certification mismatch (sponsor and joiner CRCs differ).
    CertifyFailed,
}

/// Full phase-by-phase timeline of a successful assimilation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssimilationTimeline {
    /// Self-boot phase.
    pub boot: SimDuration,
    /// Diagnostics phase.
    pub diagnostics: SimDuration,
    /// Version handshake.
    pub handshake: SimDuration,
    /// Cache refresh (scales with cache size).
    pub refresh: SimDuration,
    /// CRC certification.
    pub certify: SimDuration,
}

impl AssimilationTimeline {
    /// Total time from power-on to Online, saturating at
    /// [`SimDuration::MAX`]: [`assimilate`] saturates `refresh` there
    /// for a huge cache, and the sum of the phases must not wrap.
    pub fn total(&self) -> SimDuration {
        [self.diagnostics, self.handshake, self.refresh, self.certify]
            .into_iter()
            .fold(self.boot, SimDuration::saturating_add)
    }
}

/// A joining node's advertisement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinRequest {
    /// Node id requesting admission.
    pub node: u8,
    /// Its firmware version.
    pub version: Version,
    /// Its optional features.
    pub features: Features,
    /// Whether its self-test passes (fault injection hook).
    pub diagnostics_pass: bool,
}

/// Evaluate a join against the policy and compute the timeline for a
/// cache of `cache_bytes`. Pure accounting — the packet-level refresh
/// itself is validated in `ampnet-cache::refresh`; the cluster does
/// not run it yet (ROADMAP item 2).
pub fn assimilate(
    req: JoinRequest,
    policy: CompatPolicy,
    cache_bytes: u64,
    params: &AssimilationParams,
) -> Result<AssimilationTimeline, AssimilationFailure> {
    if !req.diagnostics_pass {
        return Err(AssimilationFailure::DiagnosticsFailed);
    }
    policy
        .check(req.version, req.features)
        .map_err(AssimilationFailure::Incompatible)?;
    let refresh = SimDuration::from_secs_f64(cache_bytes as f64 / params.refresh_bandwidth);
    let mb = cache_bytes as f64 / 1e6;
    let certify = SimDuration::from_nanos(
        (params.certify_per_mb.as_nanos() as f64 * mb).round() as u64,
    );
    Ok(AssimilationTimeline {
        boot: params.boot_time,
        diagnostics: params.diagnostics_time,
        handshake: params.handshake_time,
        refresh,
        certify,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> CompatPolicy {
        CompatPolicy {
            required_major: 1,
            min_minor: 0,
            required_features: Features::NONE,
        }
    }

    fn good_join() -> JoinRequest {
        JoinRequest {
            node: 5,
            version: Version::new(1, 2, 3),
            features: Features::D64_ATOMIC,
            diagnostics_pass: true,
        }
    }

    #[test]
    fn successful_assimilation_timeline() {
        let t = assimilate(good_join(), policy(), 16_000_000, &Default::default()).unwrap();
        assert!(t.refresh > SimDuration::from_millis(200), "16 MB at 75 MB/s");
        assert!(t.total() > t.refresh);
        // Refresh dominates for big caches.
        assert!(t.refresh > t.boot);
    }

    #[test]
    fn refresh_scales_linearly_with_cache() {
        let p = AssimilationParams::default();
        let t2 = assimilate(good_join(), policy(), 2_000_000, &p).unwrap();
        let t256 = assimilate(good_join(), policy(), 256_000_000, &p).unwrap();
        let ratio = t256.refresh.as_nanos() as f64 / t2.refresh.as_nanos() as f64;
        assert!((ratio - 128.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn failed_diagnostics_rejected() {
        let mut j = good_join();
        j.diagnostics_pass = false;
        assert_eq!(
            assimilate(j, policy(), 1000, &Default::default()),
            Err(AssimilationFailure::DiagnosticsFailed)
        );
    }

    #[test]
    fn incompatible_version_rejected() {
        let mut j = good_join();
        j.version = Version::new(2, 0, 0);
        assert!(matches!(
            assimilate(j, policy(), 1000, &Default::default()),
            Err(AssimilationFailure::Incompatible(_))
        ));
    }
}
