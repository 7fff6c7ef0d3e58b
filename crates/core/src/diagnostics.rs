//! Post-rostering diagnostics (slide 18): "Built-in diagnostics
//! certify new configuration".
//!
//! After every roster episode the master runs a certification sweep:
//! an Echo probe travels the new ring once (proving every hop really
//! forwards), then every member reports the CRC of each cache region
//! so divergent replicas are caught before applications resume (the
//! simulation compares the replicas' bytes directly, which is what
//! equal CRCs stand for). The sweep runs *inside* the simulation
//! (Diagnostic MicroPackets over the fresh ring) and its verdict is
//! journaled as an [`ObservedEvent::Certified`].

use crate::cluster::Cluster;
use crate::observe::ObservedEvent;
use ampnet_packet::build::{self, DiagOp};
use ampnet_packet::{MicroPacket, PacketType};
use ampnet_sim::SimTime;

/// Verdict of one certification sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certification {
    /// Roster epoch certified.
    pub epoch: u64,
    /// The Echo probe completed a full tour of the new ring.
    pub echo_completed: bool,
    /// Every pair of online replicas agreed on every region CRC.
    pub crc_uniform: bool,
    /// When the sweep finished.
    pub at: SimTime,
}

impl Certification {
    /// Overall pass/fail.
    pub fn passed(&self) -> bool {
        self.echo_completed && self.crc_uniform
    }
}

impl Cluster {
    /// Completed certification sweeps, oldest first.
    pub fn certifications(&self) -> impl Iterator<Item = &Certification> {
        self.observations.iter().filter_map(|(_, ev)| match ev {
            ObservedEvent::Certified(cert) => Some(cert),
            _ => None,
        })
    }

    /// Launch the certification sweep for the epoch just installed.
    /// Called from `restore_ring`.
    pub(crate) fn start_certification(&mut self) {
        if self.ring.is_empty() {
            return;
        }
        let master = self.ring.order[0].0;
        self.certifying = Some(self.epoch);
        // Echo probe: a broadcast Diagnostic cell; when it returns to
        // the master (strip), the tour is proven. Payload tags the
        // epoch so stale probes are ignored.
        let mut payload = [0u8; 8];
        payload[..8].copy_from_slice(&self.epoch.to_be_bytes());
        let probe = build::diagnostic(master, ampnet_packet::BROADCAST, DiagOp::Echo, payload);
        self.send_own(master, [probe]);
    }

    /// A Diagnostic packet was stripped back at its source: if it is
    /// the current epoch's Echo probe, the tour completed — finish the
    /// sweep with the CRC audit.
    pub(crate) fn on_diag_strip(&mut self, node: u8, pkt: &MicroPacket) {
        if pkt.ctrl.ptype != PacketType::Diagnostic {
            return;
        }
        let Some(epoch) = self.certifying else {
            return;
        };
        if self.ring.is_empty() || self.ring.order[0].0 != node {
            return;
        }
        let probe_epoch = u64::from_be_bytes(*pkt.fixed_payload());
        if probe_epoch != epoch {
            return;
        }
        // CRC audit: all online replicas must agree region-by-region.
        // (The master gathers CrcAudit responses; replica content is
        // already synchronously visible to the simulation, so we
        // compare the bytes directly — the packet cost of the audit is
        // one fixed cell per region per node, negligible next to the
        // echo tour.)
        let crc_uniform = self.caches_converged();
        self.certifying = None;
        self.observe(ObservedEvent::Certified(Certification {
            epoch,
            echo_completed: true,
            crc_uniform,
            at: self.now(),
        }));
    }
}

/// Timer-based fallback: if an echo tour cannot complete (e.g. the
/// ring broke again mid-sweep), the sweep is abandoned when the next
/// episode starts.
pub(crate) fn abandon_if_running(cluster: &mut Cluster) {
    cluster.certifying = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use ampnet_sim::SimDuration;

    /// The audit's negative case: one flipped byte in one online
    /// replica, while the echo probe is still touring, fails the sweep.
    #[test]
    fn a_diverged_replica_fails_certification() {
        let mut c = Cluster::new(ClusterConfig::small(6).with_seed(20));
        c.run_for(SimDuration::from_millis(4));
        assert_eq!(c.certifications().count(), 1, "boot epoch certified");
        assert!(c.certifications().all(Certification::passed));
        assert!(c.caches_converged());

        c.start_certification();
        assert!(c.certifying.is_some(), "probe in flight");
        assert!(c.node_online(3));
        let word = c.nodes[3].cache.read_u64(0, 4096).unwrap();
        c.nodes[3].cache.write_u64_local(0, 4096, word ^ 1).unwrap();
        c.run_for(SimDuration::from_micros(200));

        assert_eq!(c.certifications().count(), 2, "sweep finished");
        let cert = c.certifications().last().unwrap();
        assert!(cert.echo_completed, "the ring itself is healthy");
        assert!(!cert.crc_uniform, "the flipped byte must be caught");
        assert!(!cert.passed());
        assert!(!c.caches_converged());
    }
}
