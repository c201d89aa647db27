//! Strongly-typed identifiers.
//!
//! Each identifier is a newtype over a small integer so that a PE id can never
//! be confused with an endpoint id or a capability selector (C-NEWTYPE).

use std::fmt;

use crate::error::Result;
use crate::marshal::{IStream, OStream, Wire};

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Creates the identifier from its raw value.
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw value.
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the raw value widened to `usize`, for indexing.
            pub const fn idx(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl Wire for $name {
            fn put(&self, os: &mut OStream) {
                os.push_u32(self.0);
            }

            fn take(is: &mut IStream<'_>) -> Result<Self> {
                is.pop_u32().map(Self)
            }
        }
    };
}

id_type!(
    /// Identifies a processing element (core + local memory + DTU) on the chip.
    ///
    /// The DRAM module is also addressable on the NoC; it gets its own `PeId`
    /// beyond the core PEs (see `m3_platform`).
    PeId,
    "PE"
);

id_type!(
    /// Identifies a virtual processing element, the kernel's abstraction for a
    /// running activity (paper §4.5.5).
    VpeId,
    "VPE"
);

id_type!(
    /// Identifies one endpoint within a DTU (8 per DTU in the prototype).
    EpId,
    "EP"
);

id_type!(
    /// A capability selector: the index of a capability within one VPE's
    /// capability table (analogous to a UNIX file descriptor, paper §4.5.3).
    SelId,
    "Sel"
);

/// The label carried in every message header to identify the sender securely.
///
/// Labels are chosen by the receiver when the channel is created and cannot be
/// forged by the sender (paper §4.4.2, following KeyKOS).
pub type Label = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip() {
        let pe = PeId::new(3);
        assert_eq!(pe.raw(), 3);
        assert_eq!(pe.idx(), 3);
        assert_eq!(PeId::from(3u32), pe);
    }

    #[test]
    fn formatting() {
        assert_eq!(format!("{}", PeId::new(2)), "PE2");
        assert_eq!(format!("{:?}", EpId::new(7)), "EP7");
        assert_eq!(format!("{}", VpeId::new(1)), "VPE1");
        assert_eq!(format!("{}", SelId::new(9)), "Sel9");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(PeId::new(1) < PeId::new(2));
        assert_eq!(EpId::default(), EpId::new(0));
    }
}
