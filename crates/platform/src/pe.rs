//! Processing-element descriptors.

use std::fmt;

use m3_base::wire;

use crate::core_model::{CoreModel, ARM, XTENSA};

wire! {
    /// The kind of core behind a DTU.
    ///
    /// The whole point of the DTU is that the OS does not care what is behind
    /// it (paper §2.2: "a general-purpose core, a DSP, an ASIC, an FPGA,
    /// etc."); the type matters only for (a) picking a suitable PE when an
    /// application requests one (§4.5.5: "the application can request a
    /// specific type of PE") and (b) the compute-cost model.
    #[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
    pub enum PeType: u8 {
        /// A general-purpose Xtensa RISC core (no privileged mode, no MMU,
        /// §4.1).
        Xtensa = 0 as "xtensa",
        /// An ARM Cortex-A15 class core (used for the §5.2 cross-check).
        Arm = 1 as "arm",
        /// An Xtensa core with FFT instruction-set extensions (§5.8).
        FftAccel = 2 as "fft-accel",
    }
}

impl fmt::Display for PeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Description of one PE of the platform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeDesc {
    /// The kind of core.
    pub ty: PeType,
}

impl PeDesc {
    /// Creates a descriptor for a core of type `ty`.
    pub fn new(ty: PeType) -> PeDesc {
        PeDesc { ty }
    }

    /// The cost model of the general-purpose part of this core. The FFT
    /// accelerator is an Xtensa core with instruction extensions, so its
    /// scalar code runs at Xtensa cost.
    pub fn core_model(&self) -> &'static CoreModel {
        match self.ty {
            PeType::Xtensa | PeType::FftAccel => &XTENSA,
            PeType::Arm => &ARM,
        }
    }

    /// Whether this PE accelerates FFTs.
    pub fn is_fft_accel(&self) -> bool {
        self.ty == PeType::FftAccel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_models_match_type() {
        assert_eq!(PeDesc::new(PeType::Xtensa).core_model().name, "xtensa");
        assert_eq!(PeDesc::new(PeType::Arm).core_model().name, "arm-cortex-a15");
        assert_eq!(PeDesc::new(PeType::FftAccel).core_model().name, "xtensa");
    }

    #[test]
    fn accel_predicate() {
        assert!(PeDesc::new(PeType::FftAccel).is_fft_accel());
        assert!(!PeDesc::new(PeType::Xtensa).is_fft_accel());
    }

    #[test]
    fn display_names() {
        assert_eq!(PeType::Xtensa.to_string(), "xtensa");
        assert_eq!(PeType::FftAccel.to_string(), "fft-accel");
    }
}
