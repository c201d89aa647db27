//@path crates/libos/src/costs.rs
// Justified suppressions in every accepted position: trailing on the
// offending line, standalone (line comment) above it, standalone block
// comment above it, and one comment naming several rules.

pub const SLOTS: u64 = 8; // m3lint: allow(cost-citation): a table size, not a modelled cost
// m3lint: allow(cost-citation): calibration knob for the test harness, not a paper figure
pub const WARMUP: u64 = 100;

/* m3lint: allow(isolation): type-only import for rustdoc links, never called */
use m3_dtu::KernelToken;

// m3lint: allow(isolation, cost-citation): a buffer size for the boot shim, not a modelled cost
pub const TOKEN_BYTES: u64 = std::mem::size_of::<KernelToken>() as u64 + 8;
