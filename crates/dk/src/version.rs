//! Version compatibility rules (slide 17).
//!
//! "Enforces version compatibilities across the network. Enforces the
//! same rules for all computers (VxWorks, Linux, Windows 2000, etc.)"
//!
//! A joining node advertises its AmpDK firmware version and feature
//! set; the network's compatibility policy (stored in the network
//! cache, so every node enforces the same rules) decides admission.

use std::fmt;

/// AmpDK firmware version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version {
    /// Protocol-breaking generation.
    pub major: u16,
    /// Backwards-compatible revision.
    pub minor: u16,
    /// Bug-fix level (never gates admission).
    pub patch: u16,
}

impl Version {
    /// Construct a version.
    pub const fn new(major: u16, minor: u16, patch: u16) -> Self {
        Version {
            major,
            minor,
            patch,
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)
    }
}

/// Optional capabilities a node may implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Features(u8);

impl Features {
    /// No optional features.
    pub const NONE: Features = Features(0);
    /// D64 Atomic MicroPackets (the slide-4 optional type).
    pub const D64_ATOMIC: Features = Features(1 << 0);
    /// Hardware CRC audit offload.
    pub const CRC_OFFLOAD: Features = Features(1 << 1);
    /// Multi-segment routing (slide 15's router "R").
    pub const ROUTING: Features = Features(1 << 2);

    /// Union of feature sets.
    pub const fn union(self, other: Features) -> Features {
        Features(self.0 | other.0)
    }

    /// Does `self` include every feature of `required`?
    pub const fn includes(self, required: Features) -> bool {
        self.0 & required.0 == required.0
    }

    /// Raw bits (wire encoding).
    pub const fn bits(self) -> u8 {
        self.0
    }
}

impl std::ops::BitOr for Features {
    type Output = Features;
    fn bitor(self, rhs: Features) -> Features {
        self.union(rhs)
    }
}

/// The network-wide admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompatPolicy {
    /// Exact major version the network runs.
    pub required_major: u16,
    /// Oldest minor revision still admitted.
    pub min_minor: u16,
    /// Features every member must implement.
    pub required_features: Features,
}

/// Why a joiner was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Major version differs — protocol-incompatible.
    MajorMismatch {
        /// Network major.
        required: u16,
        /// Joiner major.
        got: u16,
    },
    /// Minor revision older than the policy floor.
    TooOld {
        /// Policy floor.
        min_minor: u16,
        /// Joiner minor.
        got: u16,
    },
    /// A required feature is missing.
    MissingFeatures {
        /// Required set.
        required: Features,
        /// Joiner's set.
        got: Features,
    },
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::MajorMismatch { required, got } => {
                write!(f, "major version {got} incompatible with network major {required}")
            }
            Rejection::TooOld { min_minor, got } => {
                write!(f, "minor revision {got} older than policy floor {min_minor}")
            }
            Rejection::MissingFeatures { required, got } => write!(
                f,
                "features {:#04x} do not include required {:#04x}",
                got.bits(),
                required.bits()
            ),
        }
    }
}

impl CompatPolicy {
    /// Check a joiner against the policy.
    pub fn check(&self, version: Version, features: Features) -> Result<(), Rejection> {
        if version.major != self.required_major {
            return Err(Rejection::MajorMismatch {
                required: self.required_major,
                got: version.major,
            });
        }
        if version.minor < self.min_minor {
            return Err(Rejection::TooOld {
                min_minor: self.min_minor,
                got: version.minor,
            });
        }
        if !features.includes(self.required_features) {
            return Err(Rejection::MissingFeatures {
                required: self.required_features,
                got: features,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> CompatPolicy {
        CompatPolicy {
            required_major: 3,
            min_minor: 2,
            required_features: Features::D64_ATOMIC,
        }
    }

    #[test]
    fn matching_version_admitted() {
        let p = policy();
        assert!(p
            .check(Version::new(3, 2, 0), Features::D64_ATOMIC)
            .is_ok());
        assert!(p
            .check(Version::new(3, 9, 17), Features::D64_ATOMIC | Features::ROUTING)
            .is_ok());
    }

    #[test]
    fn major_mismatch_rejected_both_directions() {
        let p = policy();
        assert_eq!(
            p.check(Version::new(2, 9, 0), Features::D64_ATOMIC),
            Err(Rejection::MajorMismatch {
                required: 3,
                got: 2
            })
        );
        assert!(matches!(
            p.check(Version::new(4, 0, 0), Features::D64_ATOMIC),
            Err(Rejection::MajorMismatch { .. })
        ));
    }

    #[test]
    fn old_minor_rejected() {
        let p = policy();
        assert_eq!(
            p.check(Version::new(3, 1, 9), Features::D64_ATOMIC),
            Err(Rejection::TooOld {
                min_minor: 2,
                got: 1
            })
        );
    }

    #[test]
    fn patch_never_gates() {
        let p = policy();
        assert!(p.check(Version::new(3, 2, 0), Features::D64_ATOMIC).is_ok());
        assert!(p
            .check(Version::new(3, 2, 999), Features::D64_ATOMIC)
            .is_ok());
    }

    #[test]
    fn missing_features_rejected() {
        let p = policy();
        assert!(matches!(
            p.check(Version::new(3, 5, 0), Features::NONE),
            Err(Rejection::MissingFeatures { .. })
        ));
        assert!(matches!(
            p.check(Version::new(3, 5, 0), Features::CRC_OFFLOAD),
            Err(Rejection::MissingFeatures { .. })
        ));
    }

    #[test]
    fn feature_algebra() {
        let all = Features::D64_ATOMIC | Features::CRC_OFFLOAD | Features::ROUTING;
        assert!(all.includes(Features::D64_ATOMIC));
        assert!(all.includes(Features::NONE));
        assert!(!Features::NONE.includes(Features::ROUTING));
    }

    #[test]
    fn version_display_and_order() {
        assert_eq!(Version::new(3, 2, 1).to_string(), "3.2.1");
        assert!(Version::new(3, 2, 1) < Version::new(3, 10, 0));
    }

    #[test]
    fn rejection_messages() {
        let p = policy();
        let e = p
            .check(Version::new(2, 0, 0), Features::D64_ATOMIC)
            .unwrap_err();
        assert!(e.to_string().contains("major"));
    }
}
