//! Serial link timing model (FC-0).
//!
//! AmpNet is "a gigabit network" on Fibre Channel FC-0 physical media
//! (slide 3, slide 11). This module turns wire bytes into simulated
//! time: serialization at the line baud rate (every data byte costs 10
//! line bits after 8b/10b) plus distance-proportional propagation.
//! The loss-of-light detection window that triggers rostering (slide
//! 16/18) is `RosterParams::detect_loss_of_light` in `ampnet-roster`.

use ampnet_sim::SimDuration;

/// Speed of light in silica fiber, metres per second (n ≈ 1.468).
pub const FIBER_M_PER_S: f64 = 2.042e8;

/// Default FC gigabit line rate, baud (line bits per second).
pub const FC_GIGABIT_BAUD: u64 = 1_062_500_000;

/// Physical parameters of one unidirectional serial link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Line rate in baud (10 line bits per encoded byte).
    pub baud: u64,
    /// Fiber length in metres.
    pub length_m: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            baud: FC_GIGABIT_BAUD,
            length_m: 100.0,
        }
    }
}

impl LinkParams {
    /// A gigabit link of the given length.
    pub fn gigabit(length_m: f64) -> Self {
        LinkParams {
            length_m,
            ..Default::default()
        }
    }

    /// Time to serialize `n` wire bytes.
    pub fn serialize_time(&self, n: usize) -> SimDuration {
        // Compute in one rounding step to avoid per-byte error buildup.
        SimDuration::from_nanos(((n as f64) * 10.0 * 1e9 / self.baud as f64).round() as u64)
    }

    /// One-way propagation delay down the fiber.
    pub fn propagation(&self) -> SimDuration {
        SimDuration::from_nanos((self.length_m / FIBER_M_PER_S * 1e9).round() as u64)
    }

    /// Effective payload bandwidth in megabytes per second given a
    /// frame of `wire_bytes` carrying `payload_bytes`.
    pub fn effective_mbps(&self, wire_bytes: usize, payload_bytes: usize) -> f64 {
        let t = self.serialize_time(wire_bytes).as_secs_f64();
        if t == 0.0 {
            return 0.0;
        }
        payload_bytes as f64 / t / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_scales_linearly() {
        let p = LinkParams::default();
        let t20 = p.serialize_time(20).as_nanos();
        // 20 bytes = 200 line bits at 1.0625 Gbaud ≈ 188 ns.
        assert_eq!(t20, 188);
        let t84 = p.serialize_time(84).as_nanos();
        assert_eq!(t84, 791); // 840 bits ≈ 790.6 ns
    }

    #[test]
    fn propagation_5ns_per_metre() {
        let p = LinkParams::gigabit(1000.0);
        let ns = p.propagation().as_nanos();
        // 1 km of silica ≈ 4.9 µs.
        assert!((4800..=5000).contains(&ns), "propagation {ns} ns");
        assert_eq!(LinkParams::gigabit(0.0).propagation().as_nanos(), 0);
    }

    #[test]
    fn effective_bandwidth() {
        let p = LinkParams::default();
        // Raw line: 106.25 MB/s of encoded bytes.
        let raw = p.effective_mbps(1000, 1000);
        assert!((raw - 106.25).abs() < 1.0, "raw {raw}");
        // A DMA micropacket: 64 payload bytes in 84 wire bytes.
        let dma = p.effective_mbps(84, 64);
        assert!((dma - 80.9).abs() < 1.5, "dma {dma}");
    }
}
